package harness

import (
	"encoding/json"
	"testing"
	"time"

	"diam2/internal/fluid"
)

// TestSchedulerKeysPinned pins the literal scheduler key of one point
// per point family. The key derives the point's seed and its store
// address, so a drift in the shared point constructor would silently
// orphan every existing store; the strings are copied from the commit
// that introduced the constructor's parent.
func TestSchedulerKeysPinned(t *testing.T) {
	var keys []string
	sc := Scale{Label: "micro", Cycles: 60, Warmup: 20, MaxDrain: 200_000, A2APackets: 1, NNPackets: 1, Seed: 1}
	sc.Sched = Sched{Workers: 1, OnPoint: func(_, _ int, key string, _ time.Duration) { keys = append(keys, key) }}
	presets := SmallPresets()
	sf := presets[0]
	tp, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.3}
	for _, c := range []struct {
		want string
		run  func() error
	}{
		{"fig6|SF(q=5,p=3)|MIN|UNI|load=0.3000", func() error {
			_, err := Fig6Oblivious(presets[:1], PatUNI, loads, sc)
			return err
		}},
		{"adaptive|SF(q=5,p=3)|A|nI=2|c=1|UNI|load=0.3000", func() error {
			_, err := AdaptiveSweep(sf, AlgA, []int{2}, nil, 4, 1, loads, sc)
			return err
		}},
		{"exchange|nearest-neighbor|SF(q=5,p=3)|MIN", func() error {
			_, err := FigExchange(presets[:1], ExNN, sc)
			return err
		}},
		{"sat|SF(q=5,p=3)|INR|WC|load=0.3000", func() error {
			_, _, err := SaturationPoint(tp, AlgINR, sf.BestAdaptive, PatWC, loads, 0.05, sc)
			return err
		}},
		{"resilience|SF(q=5,p=3)|MIN|UNI|frac=0.0500|load=0.3000", func() error {
			_, err := ResilienceSweep(sf, []AlgKind{AlgMIN}, []PatternKind{PatUNI}, []float64{0.05}, 0.3, sc)
			return err
		}},
		{"screen|SF(q=5,p=3)|MIN|UNI|load=0.3000", func() error {
			_, err := ScreenSweep(presets[:1], ScreenSpec{Loads: loads}, sc)
			return err
		}},
		{"escalate|SF(q=5,p=3)|MIN|UNI|load=0.3000", func() error {
			scr, err := NewScreener(presets[:1], sc)
			if err != nil {
				return err
			}
			quiet := sc
			quiet.Sched.OnPoint = nil
			pts, err := scr.Sweep(ScreenSpec{Loads: loads}, quiet)
			if err != nil {
				return err
			}
			_, err = scr.Escalate([]EscalationPick{{Point: pts[0]}}, sc)
			return err
		}},
		{"calibrate|SF(q=5,p=3)|MIN|UNI|load=1.0000", func() error {
			_, err := Calibrate(presets, sc)
			return err
		}},
	} {
		keys = keys[:0]
		if err := c.run(); err != nil {
			t.Errorf("%s: %v", c.want, err)
			continue
		}
		if len(keys) == 0 || keys[0] != c.want {
			t.Errorf("first scheduler key = %q, want %q", keys, c.want)
		}
	}
}

// TestScreenPointWireBytes: a ScreenPoint is a store payload and an
// HTTP answer; its typed kinds must travel as the names the string
// fields they replaced held. The literal is a parent-commit encoding.
func TestScreenPointWireBytes(t *testing.T) {
	const wire = `{"Topo":"SF(q=5,p=3)","Family":"SF","Alg":"INR","Pat":"WC","Load":0.25,"Saturation":0.6153846153846154,"MaxLinkLoad":1.625,"AvgHops":3.7091666666666665,"Throughput":0.25,"AvgLatency":23.919230576441116}`
	want := ScreenPoint{Topo: "SF(q=5,p=3)", Family: "SF", Alg: AlgINR, Pat: PatWC, Estimate: fluid.Estimate{
		Load: 0.25, Saturation: 0.6153846153846154, MaxLinkLoad: 1.625, AvgHops: 3.7091666666666665, Throughput: 0.25, AvgLatency: 23.919230576441116}}
	var got ScreenPoint
	if err := json.Unmarshal([]byte(wire), &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != wire {
		t.Errorf("encoded\n%s\nwant\n%s", b, wire)
	}
	if err := json.Unmarshal([]byte(`{"Alg":"UGAL"}`), &got); err == nil {
		t.Error("a payload naming an unknown routing decoded")
	}
}
