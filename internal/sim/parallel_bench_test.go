package sim_test

import (
	"fmt"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// benchParallel builds a warmed parallel engine over the benchmark
// MLFM with the given shard/worker counts.
func benchParallel(tb testing.TB, tp topo.Topology, load float64, parts, workers int) *sim.ParallelEngine {
	tb.Helper()
	alg := routing.NewMinimal(tp)
	cfg := sim.TestConfig(alg.NumVCs())
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: traffic.Uniform{N: tp.Nodes()}, Load: load, PacketFlits: cfg.PacketFlits()}
	pe, err := sim.NewParallelEngine(net, alg, w, sim.ParallelOptions{Partitions: parts, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	return pe
}

// TestStepZeroAllocParallel mirrors the serial TestStepZeroAlloc trio
// for the sharded engine: once queue slabs, event rings, freelists and
// the cross-shard mailboxes are warmed, the per-cycle path — barrier
// rounds included — must not allocate on any worker. AllocsPerRun
// counts mallocs across all goroutines, so the resident workers are
// covered, not just the coordinator.
func TestStepZeroAllocParallel(t *testing.T) {
	tp, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	pe := benchParallel(t, tp, 0.25, 2, 2)
	defer pe.Stop()
	pe.Run(30000) // warm queues, rings, freelists and mailboxes
	const cycles = 64
	if avg := testing.AllocsPerRun(50, func() { pe.Run(cycles) }); avg != 0 {
		t.Errorf("steady-state parallel Run allocates %.4f times per %d cycles, want 0", avg, cycles)
	}
}

// BenchmarkParallelEngine measures sustained cycles/s of the sharded
// engine against the serial engine on the same near-saturation point
// (see EXPERIMENTS.md, "Sharded engine"). The
// shard/worker split separates partitioning overhead (P=4/W=1: mailbox
// and barrier costs with zero actual parallelism) from parallel
// speedup (P=4/W=4), which is what makes single-CPU numbers honest.
func BenchmarkParallelEngine(b *testing.B) {
	tp, err := topo.NewSlimFly(19, topo.RoundDown) // 722 routers — paper-scale
	if err != nil {
		b.Fatal(err)
	}
	const load = 0.7 // near saturation for MIN/uniform
	b.Run("serial", func(b *testing.B) {
		e := benchEngine(b, tp, load)
		e.Run(2000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	})
	for _, c := range []struct{ p, w int }{{4, 1}, {2, 2}, {4, 4}} {
		b.Run(fmt.Sprintf("P=%d/W=%d", c.p, c.w), func(b *testing.B) {
			pe := benchParallel(b, tp, load, c.p, c.w)
			defer pe.Stop()
			pe.Run(2000)
			b.ResetTimer()
			pe.Run(int64(b.N))
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}
