package sim_test

import (
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// benchParallel builds a parallel engine over the benchmark MLFM on the
// given configuration (sim.TestConfig, sim.DefaultConfig) with the
// given shard/worker counts.
func benchParallel(tb testing.TB, tp topo.Topology, config func(numVCs int) sim.Config, load float64, parts, workers int) *sim.Engine {
	tb.Helper()
	alg := routing.NewMinimal(tp)
	cfg := config(alg.NumVCs())
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

// TestStepZeroAllocParallel mirrors the one-shard TestStepZeroAlloc trio
// from two shards and two workers up: once queue slabs, event rings, freelists and
// the cross-shard mailboxes are warmed, the per-cycle path — barrier
// rounds included — must not allocate on any worker. AllocsPerRun
// counts mallocs across all goroutines, so the resident workers are
// covered, not just the coordinator. TestConfig runs one-cycle epochs;
// DefaultConfig's LinkLatency of 10 fills both mailbox parities with
// ten cycles of cut traffic each.
func TestStepZeroAllocParallel(t *testing.T) {
	tp, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		config func(int) sim.Config
	}{{"TestConfig", sim.TestConfig}, {"DefaultConfig", sim.DefaultConfig}} {
		pe := benchParallel(t, tp, c.config, 0.25, 2, 2)
		defer pe.Stop()
		pe.Run(30000) // warm queues, rings, freelists and mailboxes
		const cycles = 64
		if avg := testing.AllocsPerRun(50, func() { pe.Run(cycles) }); avg != 0 {
			t.Errorf("%s: steady-state parallel Run allocates %.4f times per %d cycles, want 0", c.name, avg, cycles)
		}
	}
}
