package routing_test

import (
	"math/rand"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// TestSlimFlyStructuralAgreesWithBFS: for every endpoint-router pair,
// the structural next hop is one of the generic (distance-matrix)
// minimal next hops.
func TestSlimFlyStructuralAgreesWithBFS(t *testing.T) {
	for _, q := range []int{4, 5, 7} { // one of each delta class
		sf := func() *topo.SlimFly {
			x, err := topo.NewSlimFly(q, topo.RoundDown)
			if err != nil {
				t.Fatal(err)
			}
			return x
		}()
		str := routing.NewSlimFlyMinimal(sf)
		g := sf.Graph()
		dist := g.DistanceMatrix()
		rng := rand.New(rand.NewSource(1))
		for src := 0; src < g.N(); src++ {
			for dst := 0; dst < g.N(); dst++ {
				if src == dst {
					continue
				}
				for trial := 0; trial < 3; trial++ {
					next, err := str.NextHopRouter(src, dst, rng)
					if err != nil {
						t.Fatalf("q=%d: %v", q, err)
					}
					if !g.HasEdge(src, next) {
						t.Fatalf("q=%d: structural hop %d->%d not a link (dst %d)", q, src, next, dst)
					}
					if dist[next][dst] != dist[src][dst]-1 {
						t.Fatalf("q=%d: structural hop %d->%d not minimal toward %d", q, src, next, dst)
					}
				}
			}
		}
	}
}

// runStructural drives a full exchange with a structural router and
// checks hop counts stay minimal.
func runStructural(t *testing.T, tp topo.Topology, alg sim.RoutingAlgorithm) {
	t.Helper()
	cfg := sim.TestConfig(alg.NumVCs())
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := traffic.AllToAll(tp.Nodes(), 1, nil)
	e, err := sim.NewEngine(net, alg, ex)
	if err != nil {
		t.Fatal(err)
	}
	if !e.RunUntilDrained(4_000_000) {
		t.Fatalf("%s did not drain on %s", alg.Name(), tp.Name())
	}
	res := e.Results()
	if res.Delivered != ex.TotalPackets() {
		t.Fatalf("%s delivered %d of %d", alg.Name(), res.Delivered, ex.TotalPackets())
	}
	if res.AvgHops > 2 {
		t.Fatalf("%s AvgHops %.3f exceeds the diameter", alg.Name(), res.AvgHops)
	}
}

func TestStructuralRoutersEndToEnd(t *testing.T) {
	sf, err := topo.NewSlimFly(5, topo.RoundDown)
	if err != nil {
		t.Fatal(err)
	}
	runStructural(t, sf, routing.NewSlimFlyMinimal(sf))

	m := mustMLFM(t, 4)
	runStructural(t, m, routing.NewMLFMMinimal(m))

	o := mustOFT(t, 4)
	runStructural(t, o, routing.NewOFTMinimal(o))
}

// TestStructuralMatchesGenericThroughput: under identical seeds and
// workloads, structural and generic minimal routing deliver the same
// traffic volume (they pick among the same minimal paths).
func TestStructuralMatchesGenericThroughput(t *testing.T) {
	m := mustMLFM(t, 4)
	run := func(alg sim.RoutingAlgorithm) sim.Results {
		cfg := sim.TestConfig(alg.NumVCs())
		net, err := sim.NewNetwork(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := &traffic.OpenLoop{Pattern: traffic.Uniform{N: m.Nodes()}, Load: 0.6, PacketFlits: cfg.PacketFlits()}
		e, err := sim.NewEngine(net, alg, w)
		if err != nil {
			t.Fatal(err)
		}
		e.Warmup = 2000
		e.Run(10000)
		return e.Results()
	}
	generic := run(routing.NewMinimal(m))
	structural := run(routing.NewMLFMMinimal(m))
	if structural.Throughput < generic.Throughput*0.97 || structural.Throughput > generic.Throughput*1.03 {
		t.Errorf("structural throughput %.3f vs generic %.3f", structural.Throughput, generic.Throughput)
	}
	if structural.AvgHops > 2 || generic.AvgHops > 2 {
		t.Error("hops exceed diameter")
	}
}

// TestMLFMStructuralColumnDiversity: same-column destinations use all
// h global routers over repeated trials (the h-fold path diversity of
// Section 2.3.3).
func TestMLFMStructuralColumnDiversity(t *testing.T) {
	m := mustMLFM(t, 4)
	str := routing.NewMLFMMinimal(m)
	cfg := sim.TestConfig(1)
	net, err := sim.NewNetwork(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := m.LocalRouter(0, 1)
	dst := m.LocalRouter(2, 1) // same column, different layer
	rng := rand.New(rand.NewSource(2))
	used := map[int]bool{}
	for trial := 0; trial < 200; trial++ {
		p := &sim.Packet{DstRouter: int32(dst), Minimal: true}
		port, _ := str.NextHop(p, net.Routers[src], rng)
		used[net.Routers[src].NeighborAt(port)] = true
	}
	if len(used) != m.H {
		t.Errorf("same-column routing used %d global routers, want %d", len(used), m.H)
	}
}
