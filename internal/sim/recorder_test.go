package sim_test

import (
	"math/rand"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// recordedRoute is one packet's observed path, rebuilt from the
// collector's flight-recorder events: the ground truth for validating
// routing invariants against what the simulator actually did rather
// than what the algorithm intended.
type recordedRoute struct {
	Src, Dst     int // nodes
	Routers      []int
	VCs          []int // VC used on each router-to-router link
	Minimal      bool
	Intermediate int
	Delivered    bool
}

// intermediateSpy wraps a routing algorithm and remembers the
// intermediate router of each packet's latest Inject decision — the one
// routing fact the event stream does not carry.
type intermediateSpy struct {
	sim.RoutingAlgorithm
	inter map[int64]int
}

func (s *intermediateSpy) Inject(p *sim.Packet, r *sim.Router, rng *rand.Rand) int {
	vc := s.RoutingAlgorithm.Inject(p, r, rng)
	s.inter[p.ID] = int(p.Intermediate)
	return vc
}

// recordRoutes drains an exchange under alg with a collector attached
// and rebuilds the route of every packet whose inject event the
// bounded ring still holds (events are in time order, so such a
// packet's later events are held too). Each route event names the
// router that decided and the VC of the outgoing link; the last one is
// the ejection at the destination router.
func recordRoutes(t *testing.T, tp topo.Topology, alg sim.RoutingAlgorithm, ex sim.Workload, maxCycles int64) []*recordedRoute {
	t.Helper()
	spy := &intermediateSpy{RoutingAlgorithm: alg, inter: map[int64]int{}}
	e := buildEngine(t, tp, spy, ex)
	c := telemetry.NewCollector(telemetry.Options{RingEvents: 1 << 16})
	e.AttachTelemetry(c)
	if !e.RunUntilDrained(maxCycles) {
		t.Fatal("did not drain")
	}
	e.Finish()
	byPacket := map[int64]*recordedRoute{}
	var routes []*recordedRoute
	for _, ev := range c.Events() {
		r := byPacket[ev.Packet]
		switch ev.Kind {
		case telemetry.EvInject:
			r = &recordedRoute{Src: ev.Src, Dst: ev.Dst, Intermediate: spy.inter[ev.Packet]}
			byPacket[ev.Packet] = r
			routes = append(routes, r)
		case telemetry.EvRoute:
			if r != nil {
				r.Routers = append(r.Routers, ev.Router)
				r.VCs = append(r.VCs, ev.VC)
			}
		case telemetry.EvDeliver:
			if r != nil {
				r.VCs = r.VCs[:len(r.VCs)-1] // the ejection is not a link
				r.Minimal = ev.Minimal
				r.Delivered = true
			}
		}
	}
	return routes
}

// validateRoutes checks recorded routes against routing invariants on
// the actual graph.
func validateRoutes(t *testing.T, tp topo.Topology, routes []*recordedRoute, maxHops int, wantMinimal bool) {
	t.Helper()
	if len(routes) == 0 {
		t.Fatal("no routes recorded")
	}
	g := tp.Graph()
	dist := g.DistanceMatrix()
	checked := 0
	for _, r := range routes {
		if !r.Delivered {
			continue
		}
		checked++
		if r.Routers[0] != tp.NodeRouter(r.Src) {
			t.Fatalf("route starts at %d, not the source router", r.Routers[0])
		}
		last := r.Routers[len(r.Routers)-1]
		if last != tp.NodeRouter(r.Dst) {
			t.Fatalf("route ends at %d, not the destination router", last)
		}
		if len(r.Routers)-1 > maxHops {
			t.Fatalf("route has %d hops, budget %d", len(r.Routers)-1, maxHops)
		}
		for i := 0; i+1 < len(r.Routers); i++ {
			if !g.HasEdge(r.Routers[i], r.Routers[i+1]) {
				t.Fatalf("route uses nonexistent link %d-%d", r.Routers[i], r.Routers[i+1])
			}
		}
		if wantMinimal {
			if !r.Minimal {
				t.Fatal("minimal routing recorded a non-minimal packet")
			}
			// Monotone distance decrease toward the destination.
			dst := last
			for i := 0; i+1 < len(r.Routers); i++ {
				if dist[r.Routers[i+1]][dst] != dist[r.Routers[i]][dst]-1 {
					t.Fatalf("hop %d->%d does not reduce distance to %d",
						r.Routers[i], r.Routers[i+1], dst)
				}
			}
		} else if r.Intermediate >= 0 && len(r.Routers) > 1 {
			// Valiant: the route must pass through the intermediate.
			// (Same-router packets are ejected at the source router
			// without touching the network, so they legitimately skip
			// it.)
			found := false
			for _, rt := range r.Routers {
				if rt == r.Intermediate {
					found = true
				}
			}
			if !found {
				t.Fatalf("indirect route %v skips its intermediate %d", r.Routers, r.Intermediate)
			}
		}
		// VC monotonicity for hop-indexed policies is implied by the
		// engine using pkt.Hops; check non-decreasing as recorded.
		for i := 0; i+1 < len(r.VCs); i++ {
			if r.VCs[i+1] < r.VCs[i] {
				t.Fatalf("VC sequence %v decreases", r.VCs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no delivered routes to validate")
	}
}

func TestRecordedMinimalRoutes(t *testing.T) {
	tp := mustSF(t, 5)
	ex := traffic.AllToAll(tp.Nodes(), 1, nil)
	validateRoutes(t, tp, recordRoutes(t, tp, routing.NewMinimal(tp), ex, 4_000_000), 2, true)
}

func TestRecordedValiantRoutes(t *testing.T) {
	tp := mustMLFM(t, 3)
	ex := traffic.AllToAll(tp.Nodes(), 1, nil)
	validateRoutes(t, tp, recordRoutes(t, tp, routing.NewValiant(tp), ex, 8_000_000), 4, false)
}
