package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenScale is the micro scale of TestFigureRenderGolden: every
// code path of a swept figure, a few milliseconds a point.
func goldenScale() Scale {
	sc := QuickScale()
	sc.Cycles = 3000
	sc.Warmup = 600
	sc.A2APackets = 1
	sc.NNPackets = 2
	sc.Sched = Sched{Workers: 2}
	return sc
}

// ladderValues appends, in declaration order, every Throughput and
// AvgLatency field reachable from v through structs and slices: the
// numbers of a saturation ladder, read by name so that the digest pins
// the values whatever type carries them.
func ladderValues(v reflect.Value, out []float64) []float64 {
	switch v.Kind() {
	case reflect.Slice:
		for i := range v.Len() {
			out = ladderValues(v.Index(i), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			switch v.Type().Field(i).Name {
			case "Throughput", "AvgLatency":
				out = append(out, v.Field(i).Float())
			default:
				out = ladderValues(v.Field(i), out)
			}
		}
	}
	return out
}

// TestFigureRenderGolden pins what every swept figure generator
// renders, not just its rows: for each generator it records the
// SHA-256 of the table's text, its CSV and its chart values (the
// renderAll flattening of the equivalence suite), and for the
// saturation ladder the saturation load plus every point's throughput
// and latency. A refactor of how figures are assembled must leave each
// line unchanged. Regenerate with
// go test ./internal/harness -run TestFigureRenderGolden -update
// (the -update flag is declared beside TestScreenPayloadGolden).
func TestFigureRenderGolden(t *testing.T) {
	small := SmallPresets()
	sf, mlfm := small[0], small[1]
	sc := goldenScale()
	tables := []struct {
		name string
		gen  func() (*Table, error)
	}{
		{"fig6-uni", func() (*Table, error) { return Fig6Oblivious(small[:2], PatUNI, []float64{0.3, 0.8}, sc) }},
		{"fig6-wc", func() (*Table, error) { return Fig6Oblivious(small[:2], PatWC, []float64{0.2, 1.0}, sc) }},
		{"adaptive-sf-ath", func() (*Table, error) {
			return AdaptiveSweep(sf, AlgATh, []int{2}, []float64{0.5}, 4, 1, []float64{0.4, 0.9}, sc)
		}},
		{"exchange-a2a", func() (*Table, error) { return FigExchange(small[:2], ExA2A, sc) }},
		{"exchange-nn", func() (*Table, error) { return FigExchange(small[2:3], ExNN, sc) }},
		{"resilience", func() (*Table, error) {
			return FigResilience(small[1:2], []AlgKind{AlgMIN, AlgA}, []PatternKind{PatUNI}, []float64{0, 0.05}, 0.3, sc)
		}},
	}
	var got strings.Builder
	for _, c := range tables {
		tab, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", c.name, sha256.Sum256([]byte(renderAll(t, tab))))
	}
	tp, err := mlfm.Build()
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.1, 0.3, 0.6}
	sat, ladder, err := SaturationPoint(tp, AlgINR, mlfm.BestAdaptive, PatWC, loads, 0.05, sc)
	if err != nil {
		t.Fatal(err)
	}
	vals := ladderValues(reflect.ValueOf(ladder), nil)
	if len(vals) != 2*len(loads) {
		t.Fatalf("saturation ladder yielded %d values, want throughput and latency at %d loads", len(vals), len(loads))
	}
	fmt.Fprintf(&got, "saturation-ladder %x\n", sha256.Sum256([]byte(fmt.Sprintf("sat=%v loads=%v values=%v", sat, loads, vals))))

	path := filepath.Join("testdata", "figure_render.txt")
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
		t.Errorf("figure render digests drifted from %s\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
