package harness

import (
	"math/rand"
	"testing"

	"diam2/internal/store"
	"diam2/internal/traffic"
)

// TestFaultedExchangeFullDelivery is the headline acceptance check for
// the fault-injection subsystem: a closed-loop exchange with links
// failed mid-run at moderate load still delivers 100% of the generated
// packets, recovered through retransmission.
func TestFaultedExchangeFullDelivery(t *testing.T) {
	pre := SmallPresets()[1] // MLFM(h=6)
	tp, err := pre.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	sc.Faults = FaultPlan{FailFrac: 0.05, FailAt: 100}
	ex := traffic.AllToAll(tp.Nodes(), sc.A2APackets, rand.New(rand.NewSource(sc.Seed)))
	res, eff, err := RunExchange(tp, AlgMIN, pre.BestAdaptive, ex, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != ex.TotalPackets() {
		t.Errorf("delivered %d of %d exchange packets", res.Delivered, ex.TotalPackets())
	}
	if res.Delivered != res.Generated {
		t.Errorf("delivered %d != generated %d", res.Delivered, res.Generated)
	}
	f := res.Faults
	if f.LinkDownEvents == 0 {
		t.Fatal("no links failed — the plan was not applied")
	}
	if f.Dropped == 0 {
		t.Error("failures dropped nothing mid-exchange (weak test: move FailAt)")
	}
	if f.RetxPending != 0 {
		t.Errorf("%d retransmissions still pending after drain", f.RetxPending)
	}
	if eff <= 0 {
		t.Errorf("effective throughput %f", eff)
	}
}

// TestResilienceThroughputMonotone is the second acceptance check: sweeping
// the failed-link fraction at a load below saturation produces a
// monotone-or-flat delivered-throughput curve — more failures never
// help. A small tolerance absorbs sampling noise between the seeded
// failure sets. The fault counts are read from each run's
// Results.Faults.
func TestResilienceThroughputMonotone(t *testing.T) {
	pre := SmallPresets()[1] // MLFM(h=6)
	sc := QuickScale()
	fracs := []float64{0, 0.05, 0.10, 0.15}
	curves, err := ResilienceSweep(pre, []AlgKind{AlgMIN}, []PatternKind{PatUNI}, fracs, 0.2, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 1 {
		t.Fatalf("got %d curves, want 1", len(curves))
	}
	c := curves[0]
	if len(c.Runs) != len(fracs) {
		t.Fatalf("got %d runs, want %d", len(c.Runs), len(fracs))
	}
	const tol = 0.02 // absolute throughput slack between adjacent fractions
	for i := 1; i < len(c.Runs); i++ {
		prev, cur := c.Runs[i-1], c.Runs[i]
		if cur.Throughput > prev.Throughput+tol {
			t.Errorf("throughput rose with more failures: frac %.2f -> %.2f gave %.3f -> %.3f",
				c.X[i-1], c.X[i], prev.Throughput, cur.Throughput)
		}
	}
	// The zero-fraction point must be a clean baseline and the heavy
	// points must actually fail links.
	if f := c.Runs[0].Faults; f.LinkDownEvents != 0 || f.Dropped != 0 {
		t.Errorf("baseline run has faults: %+v", f)
	}
	for i, r := range c.Runs[1:] {
		if r.Faults.LinkDownEvents == 0 {
			t.Errorf("frac %.2f failed no links", c.X[i+1])
		}
	}
	// Below saturation the network should ride through 15% failures
	// with most of its throughput intact.
	if base, last := c.Runs[0].Throughput, c.Runs[len(c.Runs)-1].Throughput; last < base*0.5 {
		t.Errorf("throughput collapsed under failures: %.3f -> %.3f", base, last)
	}
}

// TestFaultPlanOverrides checks the FaultPlan -> sim.Config plumbing.
func TestFaultPlanOverrides(t *testing.T) {
	sc := QuickScale()
	sc.Faults = FaultPlan{FailCount: 1, RetxTimeout: 777, RebuildLatency: -1}
	cfg := sc.SimConfig(2)
	if cfg.RetxTimeout != 777 {
		t.Errorf("RetxTimeout = %d, want 777", cfg.RetxTimeout)
	}
	if cfg.RebuildLatency != 0 {
		t.Errorf("RebuildLatency = %d, want 0 (forced instant)", cfg.RebuildLatency)
	}
	sc.Faults.RebuildLatency = 99
	if cfg = sc.SimConfig(2); cfg.RebuildLatency != 99 {
		t.Errorf("RebuildLatency = %d, want 99", cfg.RebuildLatency)
	}
}

// TestFaultPlanNormalForm: plans that inject alike normalise alike, and
// the store key reads the normal form. An inactive plan keys as no plan
// at all, a burst at FailAt < 0 as the same burst at the warm-up cycle,
// and the MTBF process without burst fields and with its MTTR resolved.
func TestFaultPlanNormalForm(t *testing.T) {
	sc := QuickScale()
	w := sc.Warmup
	for _, c := range []struct{ plan, want FaultPlan }{
		{FaultPlan{FailAt: -1}, FaultPlan{}},
		{FaultPlan{FailAt: 500, MTTR: 5, RetxTimeout: 64, RebuildLatency: -1}, FaultPlan{}},
		{FaultPlan{FailFrac: 0.05, FailAt: -1, MTTR: 5}, FaultPlan{FailFrac: 0.05, FailAt: w}},
		{FaultPlan{FailCount: 3, FailFrac: 0.05, FailAt: 100, RetxTimeout: -1}, FaultPlan{FailCount: 3, FailAt: 100}},
		{FaultPlan{MTBF: 5, FailCount: 3, FailFrac: 0.05, FailAt: 100}, FaultPlan{MTBF: 5, MTTR: 1}},
		{FaultPlan{MTBF: 200000, RebuildLatency: -1}, FaultPlan{MTBF: 200000, MTTR: 20000, RebuildLatency: -1}},
	} {
		if got := c.plan.normal(w); got != c.want {
			t.Errorf("%+v normalises to %+v, want %+v", c.plan, got, c.want)
		}
		plan, want := sc, sc
		plan.Faults, want.Faults = c.plan, c.want
		if a, b := plan.pointConfig("p").Key(), want.pointConfig("p").Key(); a != b {
			t.Errorf("%+v keys as %s, its normal form as %s", c.plan, store.ShortKey(a), store.ShortKey(b))
		}
	}
	// What stays apart: the burst's cycle and the overrides of an
	// active plan.
	burst := sc
	burst.Faults = FaultPlan{FailFrac: 0.05}
	for _, f := range []FaultPlan{{FailFrac: 0.05, FailAt: 100}, {FailFrac: 0.05, RetxTimeout: 64}} {
		other := sc
		other.Faults = f
		if burst.pointConfig("p").Key() == other.pointConfig("p").Key() {
			t.Errorf("%+v keys as %+v", f, burst.Faults)
		}
	}
}
