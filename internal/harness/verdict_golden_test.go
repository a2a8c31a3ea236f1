package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerdictTablesGolden pins the rendered text of the two tables
// that score the fluid tier against the simulator: the calibration
// pass of the CI gate (all nine golden scenarios at quick scale, the
// table diam2report prints) and an escalation pass over the SF and
// MLFM worst-case minimal ladders around their predicted saturation.
// Every digit of the fluid estimate, the simulator's answer, the
// relative error and the verdict is on a line here, so a change to how
// either pass runs or scores must leave this file unchanged.
// Regenerate with go test ./internal/harness -run
// TestVerdictTablesGolden -update (the flag is declared beside
// TestScreenPayloadGolden).
func TestVerdictTablesGolden(t *testing.T) {
	var got strings.Builder
	cals, err := calibrated()
	if err != nil {
		t.Fatal(err)
	}
	if err := CalibrationTable(cals).Render(&got); err != nil {
		t.Fatal(err)
	}

	sc := QuickScale()
	presets := SmallPresets()[:2] // SF(q=5,p=3), MLFM(h=6)
	points, err := ScreenSweep(presets, ScreenSpec{
		Algs:  []AlgKind{AlgMIN},
		Pats:  []PatternKind{PatWC},
		Loads: []float64{0.15, 0.18},
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	escs, err := EscalateSweep(SelectEscalations(points, 0.15), presets, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := EscalationTable(escs).Render(&got); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "verdict_tables.txt")
	if *updateScreenGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got.String() != string(want) {
		t.Errorf("verdict tables drifted from %s\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
