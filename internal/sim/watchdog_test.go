package sim_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// blackhole is a pathological routing algorithm that never forwards a
// packet toward its destination router: at every hop it picks a
// neighbor that is not the destination, so packets orbit the network
// forever and nothing is ever ejected. It artificially wedges the
// network to exercise the Engine.Stalled watchdog.
type blackhole struct{}

func (blackhole) Name() string { return "blackhole" }
func (blackhole) NumVCs() int  { return 2 }

func (blackhole) Inject(p *sim.Packet, r *sim.Router, rng *rand.Rand) int { return 0 }

func (blackhole) NextHop(p *sim.Packet, r *sim.Router, rng *rand.Rand) (int, int) {
	for port := 0; port < r.NetPorts(); port++ {
		if r.NeighborAt(port) != int(p.DstRouter) {
			return port, int(p.Hops) % 2
		}
	}
	return 0, 0 // degree-1 router: no way to avoid the destination
}

// ringTopology builds an n-router ring with one node per router, so
// every router has degree 2 and a blackhole always has an escape port.
func ringTopology(t *testing.T, n int) topo.Topology {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("routers " + strconv.Itoa(n) + "\n")
	for i := 0; i < n; i++ {
		sb.WriteString("nodes " + strconv.Itoa(i) + " 1\n")
	}
	for i := 0; i < n; i++ {
		sb.WriteString(strconv.Itoa(i) + " " + strconv.Itoa((i+1)%n) + "\n")
	}
	tp, err := topo.ReadEdgeList(strings.NewReader(sb.String()), "ring")
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestStalledWatchdogFiresOnWedgedNetwork documents the watchdog
// contract: once packets are in flight but none has been delivered for
// a full window, Stalled reports true, and RunUntilDrained gives up at
// its cycle budget instead of spinning forever.
func TestStalledWatchdogFiresOnWedgedNetwork(t *testing.T) {
	tp := ringTopology(t, 6)
	ex := traffic.AllToAllSequential(tp.Nodes(), 1)
	e := buildEngine(t, tp, blackhole{}, ex)

	const window = 500
	if e.Stalled(window) {
		t.Fatal("watchdog fired before anything was injected")
	}
	e.Run(window * 4)
	if res := e.Results(); res.Delivered != 0 {
		t.Fatalf("blackhole delivered %d packets — the wedge is broken", res.Delivered)
	}
	if e.Results().Injected == 0 {
		t.Fatal("nothing injected — the wedge was never exercised")
	}
	if !e.Stalled(window) {
		t.Errorf("watchdog silent: injected=%d delivered=%d after %d cycles",
			e.Results().Injected, e.Results().Delivered, e.Now())
	}
	if e.RunUntilDrained(e.Now() + 2000) {
		t.Error("RunUntilDrained claimed a wedged network drained")
	}
}

// TestStalledWatchdogQuietOnHealthyNetwork: the same workload under a
// real routing algorithm delivers, and the watchdog stays quiet even
// right after the drain.
func TestStalledWatchdogQuietOnHealthyNetwork(t *testing.T) {
	tp := mustMLFM(t, 3)
	ex := traffic.AllToAllSequential(tp.Nodes(), 1)
	e := buildEngine(t, tp, routing.NewMinimal(tp), ex)
	if !e.RunUntilDrained(1_000_000) {
		t.Fatalf("exchange did not drain: %+v", e.Results())
	}
	if e.Stalled(500) {
		t.Error("watchdog fired on a fully drained network")
	}
}

// TestStalledWatchdogQuietAfterFaultDrops: retransmissions re-count
// injections, so after link failures drop packets injected stays above
// delivered for good; the watchdog must count what is still in flight
// (drops subtracted), or a drained, idle network reads as wedged. Asked
// of one shard and of two: the counters are sums.
func TestStalledWatchdogQuietAfterFaultDrops(t *testing.T) {
	tp := mustMLFM(t, 4)
	for _, shards := range []int{1, 2} {
		ex := traffic.AllToAll(tp.Nodes(), 1, rand.New(rand.NewSource(5)))
		net, err := sim.NewNetwork(tp, sim.TestConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewParallelEngine(net, routing.NewMinimal(tp), ex, sim.ParallelOptions{Partitions: shards, Workers: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		fs, err := sim.RandomLinkFailures(tp, 5, 300, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetFaultSchedule(fs); err != nil {
			t.Fatal(err)
		}
		if !e.RunUntilDrained(100_000) {
			t.Fatalf("%d shards: faulted exchange did not drain: %+v", shards, e.Results())
		}
		res := e.Results()
		if res.Faults.Dropped == 0 || res.Injected <= res.Delivered {
			t.Fatalf("%d shards: no packet was dropped and retransmitted (weak test): %+v", shards, res)
		}
		const window = 1000
		e.Run(2 * window)
		if e.Stalled(window) {
			t.Errorf("%d shards: watchdog fired on a drained network idle for %d cycles (injected %d, delivered %d, dropped %d)",
				shards, 2*window, res.Injected, res.Delivered, res.Faults.Dropped)
		}
	}
}
