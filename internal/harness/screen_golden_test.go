package harness

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateScreenGolden = flag.Bool("update", false, "rewrite the screening payload digests under testdata/")

// TestScreenPayloadGolden pins the fluid tier's values, not just its
// wire format: for every (preset, routing, pattern) ladder it records
// the SHA-256 of the ladder's json.Marshal(ScreenPoint) payloads, one
// per line. Those bytes are what the store holds and diam2serve
// answers, so any change to the fluid arithmetic that moves a last bit
// shows up here. The small presets run a dense 250-load ladder at
// quick scale, the paper presets a 30-load ladder at paper scale.
func TestScreenPayloadGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		presets []Preset
		scale   Scale
		loads   []float64
	}{
		{SmallPresets(), QuickScale(), ScreenGridLoads(250)},
		{PaperPresets(), PaperScale(), ScreenGridLoads(30)},
	} {
		scr, err := NewScreener(c.presets, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.presets {
			for _, alg := range []AlgKind{AlgMIN, AlgINR} {
				for _, pat := range []PatternKind{PatUNI, PatWC} {
					h := sha256.New()
					for _, load := range c.loads {
						sp, err := scr.Point(p.Name, alg, pat, load)
						if err != nil {
							t.Fatal(err)
						}
						b, err := json.Marshal(sp)
						if err != nil {
							t.Fatal(err)
						}
						h.Write(append(b, '\n'))
					}
					fmt.Fprintf(&got, "%s %s %s %s loads=%d %x\n", c.scale.Label, p.Name, alg, pat, len(c.loads), h.Sum(nil))
				}
			}
		}
	}
	path := filepath.Join("testdata", "screen_payloads.txt")
	if *updateScreenGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got.String() != string(want) {
		t.Errorf("screening payload digests drifted from %s\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
