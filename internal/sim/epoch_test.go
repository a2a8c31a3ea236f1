package sim

import (
	"math/rand"
	"testing"

	"diam2/internal/topo"
)

// strideLoad is a stateless open-loop workload for in-package sharded
// tests: every node sends across the machine every eighth cycle.
type strideLoad struct{ n int }

func (w strideLoad) Name() string { return "stride-test" }
func (w strideLoad) NextPacket(src int, now int64, _ *rand.Rand) (int, bool) {
	return (src + w.n/2) % w.n, now%8 == 0
}
func (w strideLoad) Done() bool    { return false }
func (w strideLoad) ParallelSafe() {}

// TestEpochBoundaryCount pins the number of barrier rounds a sharded
// run crosses: one per LinkLatency-cycle epoch plus the stopping one —
// 1/LinkLatency of a round per cycle where lockstep cycles took three.
// A launch of one cycle is the lockstep case: its own round and the
// stopping one.
func TestEpochBoundaryCount(t *testing.T) {
	tp, err := topo.NewMLFM(3)
	if err != nil {
		t.Fatal(err)
	}
	alg := newBFSMinRoute(tp, 2)
	cfg := TestConfig(alg.NumVCs())
	cfg.LinkLatency, cfg.SwitchLatency = 10, 20
	net, err := NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewParallelEngine(net, alg, strideLoad{tp.Nodes()}, ParallelOptions{Partitions: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for _, c := range []struct{ run, want int64 }{
		{1500, 150 + 1},
		{1505, 150 + 1 + 1}, // a last epoch of five cycles
		{1, 1 + 1},
	} {
		before := e.boundaries
		e.Run(c.run)
		if got := e.boundaries - before; got != c.want {
			t.Errorf("Run(%d) crossed %d boundaries, want %d", c.run, got, c.want)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if res := e.Results(); res.Delivered == 0 {
		t.Error("nothing delivered (weak test)")
	}
}
