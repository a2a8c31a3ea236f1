package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// Engine micro-benchmarks. Every figure in the paper is built from
// thousands of flit-level simulation points, so single-point speed is
// the wall-clock bottleneck of the reproduction (see EXPERIMENTS.md,
// "Where a paper-scale cycle goes", for where that time is spent). The
// benchmark topologies all exceed 50 routers: SF(q=7) has 98, MLFM(h=6)
// 63, OFT(k=6) 93; SF11 is SlimFly(q=11) with 242 routers, tracking the
// saturated regime at a larger scale.

// benchTopologies builds the benchmark instances; index by family name.
func benchTopologies(tb testing.TB) map[string]topo.Topology {
	tb.Helper()
	sf, err := topo.NewSlimFly(7, topo.RoundDown)
	if err != nil {
		tb.Fatal(err)
	}
	sf11, err := topo.NewSlimFly(11, topo.RoundDown)
	if err != nil {
		tb.Fatal(err)
	}
	ml, err := topo.NewMLFM(6)
	if err != nil {
		tb.Fatal(err)
	}
	of, err := topo.NewOFT(6)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]topo.Topology{"SF": sf, "SF11": sf11, "MLFM": ml, "OFT": of}
}

// benchStepCases is the BenchmarkEngineStep matrix. Load 0.9 rows and
// the SF11 cases track the saturated regime — the paper's claims live
// at and beyond the knee, which is exactly where per-cycle cost peaks —
// so regressions there are caught, not just at load <= 0.7.
var benchStepCases = []struct {
	family string
	load   float64
}{
	{"SF", 0.1}, {"SF", 0.3}, {"SF", 0.7}, {"SF", 0.9},
	{"MLFM", 0.1}, {"MLFM", 0.3}, {"MLFM", 0.7}, {"MLFM", 0.9},
	{"OFT", 0.1}, {"OFT", 0.3}, {"OFT", 0.7}, {"OFT", 0.9},
	{"SF11", 0.7}, {"SF11", 0.9},
}

func benchEngine(tb testing.TB, tp topo.Topology, load float64) *sim.Engine {
	tb.Helper()
	alg := routing.NewMinimal(tp)
	cfg := sim.TestConfig(alg.NumVCs())
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: traffic.Uniform{N: tp.Nodes()}, Load: load, PacketFlits: cfg.PacketFlits()}
	e, err := sim.NewEngine(net, alg, w)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkEngineStep measures a single warmed cycle at low, mid and
// near-saturation offered load (ns/op = one Step; cycles/s is the
// sustained single-point simulation rate).
func BenchmarkEngineStep(b *testing.B) {
	tops := benchTopologies(b)
	for _, c := range benchStepCases {
		b.Run(fmt.Sprintf("%s/load=%.1f", c.family, c.load), func(b *testing.B) {
			e := benchEngine(b, tops[c.family], c.load)
			e.Run(3000) // reach steady state before measuring
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// TestStepZeroAllocIdle: a warmed engine whose network is empty must
// not allocate at all — the cycle loop over idle state is pure
// bookkeeping. Guards the active-set engine against hot-path
// allocation regressions.
func TestStepZeroAllocIdle(t *testing.T) {
	tp, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	e := benchEngine(t, tp, 0) // open loop at zero load: polls, never injects
	e.Run(2000)
	if avg := testing.AllocsPerRun(500, e.Step); avg != 0 {
		t.Errorf("idle Step allocates %.2f times per cycle, want 0", avg)
	}
}

// TestStepZeroAllocDrained: after a closed-loop workload finishes and
// the network drains, stepping is allocation-free (the regime
// RunUntilDrained's tail spends its time in).
func TestStepZeroAllocDrained(t *testing.T) {
	tp, err := topo.NewMLFM(3)
	if err != nil {
		t.Fatal(err)
	}
	ex := traffic.AllToAll(tp.Nodes(), 1, nil)
	alg := routing.NewMinimal(tp)
	cfg := sim.TestConfig(alg.NumVCs())
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(net, alg, ex)
	if err != nil {
		t.Fatal(err)
	}
	if !e.RunUntilDrained(2_000_000) {
		t.Fatal("exchange did not drain")
	}
	if avg := testing.AllocsPerRun(500, e.Step); avg != 0 {
		t.Errorf("drained Step allocates %.2f times per cycle, want 0", avg)
	}
}

// TestStepZeroAllocSteady: once queue slabs, ring slots and the packet
// freelist are warmed, steady-state traffic recycles everything — zero
// heap allocations per cycle even while packets flow.
func TestStepZeroAllocSteady(t *testing.T) {
	tp, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	e := benchEngine(t, tp, 0.25)
	e.Run(30000) // warm queue capacities, event ring and freelist
	if avg := testing.AllocsPerRun(2000, e.Step); avg != 0 {
		t.Errorf("steady-state Step allocates %.4f times per cycle, want 0", avg)
	}
}

// TestStepAllocPaperScale pins allocation where it actually happens:
// the zero-alloc tests above run warmed 50–98-router networks, but a
// paper-scale point — SF(q=13), 3042 nodes, 100 KB of buffer per port —
// is measured over cycles 300–1500, while queues, packet slab and event
// rings are still finding their depth. That growth must be amortized
// (rings start small, double, and are reused; nothing is sized to its
// credit capacity up front): at most 2 allocations per cycle averaged
// over the measured window.
func TestStepAllocPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale network: skipped in -short mode")
	}
	tp, err := topo.NewSlimFly(13, topo.RoundDown)
	if err != nil {
		t.Fatal(err)
	}
	alg := routing.NewMinimal(tp)
	cfg := sim.DefaultConfig(alg.NumVCs())
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: traffic.Uniform{N: tp.Nodes()}, Load: 0.7, PacketFlits: cfg.PacketFlits()}
	e, err := sim.NewEngine(net, alg, w)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	// Counted by hand: testing.AllocsPerRun would spend an uncounted
	// warm-up call first, and the window right after cycle 300 is the
	// point.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run(1200)
	runtime.ReadMemStats(&after)
	if avg := float64(after.Mallocs-before.Mallocs) / 1200; avg > 2 {
		t.Errorf("paper-scale Step allocates %.2f times per cycle over cycles 300-1500, want <= 2", avg)
	} else {
		t.Logf("%.3f allocations per cycle over cycles 300-1500", avg)
	}
}
