package sim

import (
	"math/rand"
	"testing"

	"diam2/internal/graph"
	"diam2/internal/topo"
)

// Slab tests: handle allocation/recycling at the unit level, and the
// engine-level recycling contract across fault-drop/retransmit cycles
// (a dropped packet's slot is released at the drop, parked by value in
// the retx queue, and re-homed into the slab at re-injection — see
// DESIGN.md §15).

func TestSlabAllocRecycle(t *testing.T) {
	var s pktSlab
	h0 := s.alloc()
	h1 := s.alloc()
	h2 := s.alloc()
	if h0 == h1 || h1 == h2 || h0 == h2 {
		t.Fatalf("handles not distinct: %d %d %d", h0, h1, h2)
	}
	if s.live() != 3 || len(s.arena) != 3 {
		t.Fatalf("live = %d, arena = %d, want 3, 3", s.live(), len(s.arena))
	}
	s.at(h1).ID = 42
	s.release(h1)
	if s.live() != 2 {
		t.Fatalf("live = %d after release, want 2", s.live())
	}
	h3 := s.alloc()
	if h3 != h1 {
		t.Fatalf("alloc after release returned %d, want recycled %d", h3, h1)
	}
	if s.live() != 3 || len(s.arena) != 3 {
		t.Fatal("recycling grew the arena")
	}
	if got := *s.at(h3); got != (Packet{}) {
		t.Fatalf("recycled slot not zeroed: %+v", got)
	}
	// LIFO recycling: the most recently released slot is reused first,
	// keeping the hot working set dense.
	s.release(h0)
	s.release(h2)
	if got := s.alloc(); got != h2 {
		t.Fatalf("freelist not LIFO: got %d, want %d", got, h2)
	}
}

// bfsMinRoute is a minimal table-based routing algorithm for in-package
// tests (the real algorithms live in internal/routing, which imports
// sim and so cannot be used here). Tables are BFS next-hops with
// lowest-ID tie-breaks, recomputed from the live graph on Rebuild; the
// VC is the hop count (ascending-VC deadlock freedom).
type bfsMinRoute struct {
	tp   topo.Topology
	nv   int
	next [][]int // next[router][dstRouter] = next router on a shortest path
}

func newBFSMinRoute(tp topo.Topology, nv int) *bfsMinRoute {
	a := &bfsMinRoute{tp: tp, nv: nv}
	a.Rebuild(tp.Graph())
	return a
}

func (a *bfsMinRoute) Name() string { return "bfs-min-test" }
func (a *bfsMinRoute) NumVCs() int  { return a.nv }

func (a *bfsMinRoute) Rebuild(g *graph.Graph) {
	n := g.N()
	next := make([][]int, n)
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for r := 0; r < n; r++ {
			if next[r] == nil {
				next[r] = make([]int, n)
			}
			next[r][dst] = -1
			if r == dst || dist[r] < 0 {
				continue
			}
			for _, nb := range g.Neighbors(r) { // ascending: lowest-ID tie-break
				if dist[nb] == dist[r]-1 {
					next[r][dst] = nb
					break
				}
			}
		}
	}
	a.next = next
}

func (a *bfsMinRoute) Inject(p *Packet, _ *Router, _ *rand.Rand) int {
	p.Minimal = true
	return 0
}

func (a *bfsMinRoute) NextHop(p *Packet, r *Router, _ *rand.Rand) (int, int) {
	nb := a.next[r.ID][p.DstRouter]
	vc := int(p.Hops)
	if vc >= a.nv {
		vc = a.nv - 1
	}
	return r.portTo(nb), vc
}

// fixedVolumeLoad is a closed-loop workload for in-package tests: each
// node sends k packets to the node halfway across the machine (so
// every packet crosses the network).
type fixedVolumeLoad struct {
	n, k int
	sent []int
	left int64
}

func newFixedVolumeLoad(n, k int) *fixedVolumeLoad {
	return &fixedVolumeLoad{n: n, k: k, sent: make([]int, n), left: int64(n * k)}
}

func (w *fixedVolumeLoad) Name() string { return "fixed-volume-test" }

func (w *fixedVolumeLoad) NextPacket(src int, _ int64, _ *rand.Rand) (int, bool) {
	if w.sent[src] >= w.k {
		return 0, false
	}
	w.sent[src]++
	w.left--
	return (src + w.n/2) % w.n, true
}

func (w *fixedVolumeLoad) Done() bool { return w.left == 0 }

// TestSlabRecycleAcrossFaultRetx drives the full drop/retransmit slot
// lifecycle: link failures drop in-flight packets (releasing their
// slab slots and parking the packets by value in the retx queues),
// retransmission re-homes them into the slab, and the run drains with
// every slot back on the freelist. The periodic CheckInvariants calls
// exercise the slab-accounting invariant throughout (live slots ==
// source-queued + in-network).
func TestSlabRecycleAcrossFaultRetx(t *testing.T) {
	tp, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	alg := newBFSMinRoute(tp, 4)
	cfg := TestConfig(alg.NumVCs())
	net, err := NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := newFixedVolumeLoad(tp.Nodes(), 60)
	e, err := NewEngine(net, alg, w)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := RandomLinkFailures(tp, 4, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetFaultSchedule(fs); err != nil {
		t.Fatal(err)
	}
	sh := e.shards[0]
	for e.Now() < 2_000_000 && !e.drained() {
		e.Step()
		if e.Now()%256 == 0 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("at cycle %d: %v", e.Now(), err)
			}
		}
	}
	if !e.drained() {
		t.Fatalf("faulted run did not drain: injected %d delivered %d dropped %d", sh.injected, sh.delivered, sh.droppedPkts)
	}
	if sh.droppedPkts == 0 {
		t.Fatal("no packets dropped — the failure burst missed all traffic (weak test)")
	}
	if sh.retransmits != sh.droppedPkts {
		t.Errorf("retransmits %d != drops %d after drain", sh.retransmits, sh.droppedPkts)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if live := sh.slab.live(); live != 0 {
		t.Errorf("drained engine holds %d live slab slots, want 0", live)
	}
	if len(sh.slab.free) != len(sh.slab.arena) {
		t.Errorf("freelist holds %d of %d arena slots after drain", len(sh.slab.free), len(sh.slab.arena))
	}
	// Recycling must bound the arena far below the total packet volume:
	// the arena peaks at the maximum simultaneous packet population, not
	// at generated-count.
	if total := int(sh.generated); len(sh.slab.arena) >= total {
		t.Errorf("arena grew to %d slots for %d generated packets — slots are not recycled", len(sh.slab.arena), total)
	}
}
