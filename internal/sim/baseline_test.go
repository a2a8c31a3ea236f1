package sim_test

import (
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// The paper's routing machinery is topology-agnostic (distance-based
// minimal next hops, endpoint-restricted Valiant); these tests verify
// it runs correctly on the baseline topologies too.

func TestFatTree2Simulates(t *testing.T) {
	ft, err := topo.NewFatTree2(8)
	if err != nil {
		t.Fatal(err)
	}
	if routing.PolicyFor(ft) != routing.VCByPhase {
		t.Error("FT2 should use phase VCs (up/down link classes)")
	}
	for _, alg := range []sim.RoutingAlgorithm{routing.NewMinimal(ft), routing.NewValiant(ft)} {
		ex := traffic.AllToAll(ft.Nodes(), 2, nil)
		e := buildEngine(t, ft, alg, ex)
		if !e.RunUntilDrained(4_000_000) {
			t.Fatalf("FT2 %s did not drain", alg.Name())
		}
		res := e.Results()
		if res.Delivered != ex.TotalPackets() {
			t.Errorf("FT2 %s delivered %d of %d", alg.Name(), res.Delivered, ex.TotalPackets())
		}
		if res.AvgHops > 4 {
			t.Errorf("FT2 %s AvgHops = %v", alg.Name(), res.AvgHops)
		}
	}
}

// TestFatTree2PermutationFullBandwidth: the defining full-bisection
// property — a permutation across leaves sustains near-full load
// (spine path diversity r/2 = 4 between any leaf pair).
func TestFatTree2PermutationFullBandwidth(t *testing.T) {
	ft, err := topo.NewFatTree2(8)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-leaf shift permutation: node i -> node (i + p) so every
	// pair of routers is distinct.
	perm, err := traffic.RouterShift(ft, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: perm, Load: 0.9, PacketFlits: 4}
	e := buildEngine(t, ft, routing.NewMinimal(ft), w)
	e.Warmup = 3000
	e.Run(16000)
	res := e.Results()
	// With 4 spines between each leaf pair and adaptive minimal
	// tie-breaking, the permutation should sustain ~0.9 offered.
	if res.Throughput < 0.75 {
		t.Errorf("FT2 permutation throughput %.3f, want near 0.9", res.Throughput)
	}
}

func TestHyperXSimulates(t *testing.T) {
	hx, err := topo.NewHyperX2D(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if routing.PolicyFor(hx) != routing.VCByHop {
		t.Error("HyperX should use hop VCs")
	}
	min := routing.NewMinimal(hx)
	if min.NumVCs() != 2 {
		t.Errorf("HyperX minimal VCs = %d, want 2", min.NumVCs())
	}
	ex := traffic.AllToAll(hx.Nodes(), 2, nil)
	e := buildEngine(t, hx, min, ex)
	if !e.RunUntilDrained(4_000_000) {
		t.Fatal("HyperX exchange did not drain")
	}
	res := e.Results()
	if res.Delivered != ex.TotalPackets() {
		t.Errorf("delivered %d of %d", res.Delivered, ex.TotalPackets())
	}
	if res.AvgHops > 2 {
		t.Errorf("AvgHops = %v > 2 on a diameter-2 HyperX", res.AvgHops)
	}
}

// TestHyperXCDG: hop-indexed VCs are deadlock-free on the HyperX for
// both minimal and indirect routing.
func TestHyperXCDG(t *testing.T) {
	hx, err := topo.NewHyperX2D(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.CDGAcyclic(hx, routing.VCByHop, false); err != nil {
		t.Errorf("HyperX minimal: %v", err)
	}
	if err := routing.CDGAcyclic(hx, routing.VCByHop, true); err != nil {
		t.Errorf("HyperX indirect: %v", err)
	}
}

// TestFatTree2CDG: phase VCs are deadlock-free on the two-level
// Fat-Tree (pure up/down routes).
func TestFatTree2CDG(t *testing.T) {
	ft, err := topo.NewFatTree2(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.CDGAcyclic(ft, routing.VCByPhase, false); err != nil {
		t.Errorf("FT2 minimal: %v", err)
	}
	if err := routing.CDGAcyclic(ft, routing.VCByPhase, true); err != nil {
		t.Errorf("FT2 indirect: %v", err)
	}
}

// TestFatTree3Simulates: the three-level Fat-Tree runs with hop VCs
// (up-down routes of at most 4 hops).
func TestFatTree3Simulates(t *testing.T) {
	ft, err := topo.NewFatTree3(4)
	if err != nil {
		t.Fatal(err)
	}
	min := routing.NewMinimal(ft)
	if min.NumVCs() != 4 {
		t.Errorf("FT3 minimal VCs = %d, want 4", min.NumVCs())
	}
	ex := traffic.AllToAll(ft.Nodes(), 2, nil)
	e := buildEngine(t, ft, min, ex)
	if !e.RunUntilDrained(4_000_000) {
		t.Fatal("FT3 exchange did not drain")
	}
	res := e.Results()
	if res.Delivered != ex.TotalPackets() {
		t.Errorf("delivered %d of %d", res.Delivered, ex.TotalPackets())
	}
	if res.AvgHops > 4 {
		t.Errorf("AvgHops = %v > 4", res.AvgHops)
	}
}
