package routing_test

import (
	"math/rand"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

func mustMLFM(t *testing.T, h int) *topo.MLFM {
	t.Helper()
	tp, err := topo.NewMLFM(h)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func mustOFT(t *testing.T, k int) *topo.OFT {
	t.Helper()
	tp, err := topo.NewOFT(k)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func mustSF(t *testing.T, q int) *topo.SlimFly {
	t.Helper()
	tp, err := topo.NewSlimFly(q, topo.RoundDown)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestPolicyFor(t *testing.T) {
	if routing.PolicyFor(mustMLFM(t, 3)) != routing.VCByPhase {
		t.Error("MLFM should use phase VCs")
	}
	if routing.PolicyFor(mustOFT(t, 3)) != routing.VCByPhase {
		t.Error("OFT should use phase VCs")
	}
	if routing.PolicyFor(mustSF(t, 5)) != routing.VCByHop {
		t.Error("SF should use hop VCs")
	}
}

func TestNumVCsMatchesPaper(t *testing.T) {
	// Section 3.4: SF needs 2 VCs minimal / 4 indirect; MLFM and OFT
	// are deadlock-free minimally (1 VC) and need 2 VCs indirect.
	sf := mustSF(t, 5)
	if got := routing.NewMinimal(sf).NumVCs(); got != 2 {
		t.Errorf("SF minimal VCs = %d, want 2", got)
	}
	if got := routing.NewValiant(sf).NumVCs(); got != 4 {
		t.Errorf("SF indirect VCs = %d, want 4", got)
	}
	m := mustMLFM(t, 3)
	if got := routing.NewMinimal(m).NumVCs(); got != 1 {
		t.Errorf("MLFM minimal VCs = %d, want 1", got)
	}
	if got := routing.NewValiant(m).NumVCs(); got != 2 {
		t.Errorf("MLFM indirect VCs = %d, want 2", got)
	}
	o := mustOFT(t, 3)
	if got := routing.NewMinimal(o).NumVCs(); got != 1 {
		t.Errorf("OFT minimal VCs = %d, want 1", got)
	}
	if got := routing.NewValiant(o).NumVCs(); got != 2 {
		t.Errorf("OFT indirect VCs = %d, want 2", got)
	}
}

// TestCDGAcyclicity verifies the Section 3.4 deadlock-freedom claims
// as channel-dependency-graph facts on small instances.
func TestCDGAcyclicity(t *testing.T) {
	cases := []struct {
		name     string
		tp       topo.Topology
		policy   routing.VCPolicy
		indirect bool
	}{
		{"MLFM minimal", mustMLFM(t, 3), routing.VCByPhase, false},
		{"MLFM indirect 2VC", mustMLFM(t, 3), routing.VCByPhase, true},
		{"OFT minimal", mustOFT(t, 3), routing.VCByPhase, false},
		{"OFT indirect 2VC", mustOFT(t, 3), routing.VCByPhase, true},
		{"SF minimal 2VC", mustSF(t, 5), routing.VCByHop, false},
		{"SF indirect 4VC", mustSF(t, 5), routing.VCByHop, true},
	}
	for _, c := range cases {
		if err := routing.CDGAcyclic(c.tp, c.policy, c.indirect); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestCDGCatchesUnderprovisionedVCs shows the converse: squeezing the
// same route sets into fewer VCs reintroduces dependency cycles
// (indirect routing on one VC for the SSPTs, Slim Fly on one VC).
func TestCDGCatchesUnderprovisionedVCs(t *testing.T) {
	if err := routing.CDGAcyclicWithVCs(mustMLFM(t, 3), routing.VCByPhase, true, 1); err == nil {
		t.Error("MLFM indirect routing on 1 VC should have a CDG cycle")
	}
	if err := routing.CDGAcyclicWithVCs(mustOFT(t, 3), routing.VCByPhase, true, 1); err == nil {
		t.Error("OFT indirect routing on 1 VC should have a CDG cycle")
	}
	if err := routing.CDGAcyclicWithVCs(mustSF(t, 5), routing.VCByHop, false, 1); err == nil {
		t.Error("SF minimal routing on 1 VC should have a CDG cycle")
	}
	if err := routing.CDGAcyclicWithVCs(mustSF(t, 5), routing.VCByHop, true, 2); err == nil {
		t.Error("SF indirect routing on 2 VCs should have a CDG cycle")
	}
}

func TestUGALConfigValidation(t *testing.T) {
	tp := mustMLFM(t, 3)
	simCfg := sim.TestConfig(2)
	if _, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 0, C: 2}, simCfg); err == nil {
		t.Error("NI=0 accepted")
	}
	if _, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 2}, simCfg); err == nil {
		t.Error("missing cost constant accepted")
	}
	if _, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 2, SFCost: true}, simCfg); err == nil {
		t.Error("SF cost without CSF accepted")
	}
	u, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, C: 2}, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumVCs() != 2 {
		t.Errorf("UGAL on MLFM VCs = %d, want 2", u.NumVCs())
	}
	th, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, C: 2, Threshold: 0.1}, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if th.Name() == u.Name() {
		t.Error("threshold variant should carry a distinct name")
	}
	// Cost sets the constant the cost model reads: CSF under SFCost.
	constant, sf := routing.UGALConfig{C: 2}, routing.UGALConfig{CSF: 1, SFCost: true}
	*constant.Cost(), *sf.Cost() = 5, 5
	if constant.C != 5 || constant.CSF != 0 || sf.CSF != 5 || sf.C != 0 {
		t.Errorf("Cost set (C, CSF) to (%v, %v) on the constant model, (%v, %v) on the SF model", constant.C, constant.CSF, sf.C, sf.CSF)
	}
}

func runLoad(t *testing.T, tp topo.Topology, alg sim.RoutingAlgorithm, pattern traffic.Pattern, load float64, cycles int64) sim.Results {
	t.Helper()
	cfg := sim.TestConfig(alg.NumVCs())
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: pattern, Load: load, PacketFlits: cfg.PacketFlits()}
	e, err := sim.NewEngine(net, alg, w)
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup = cycles / 5
	e.Run(cycles)
	return e.Results()
}

// TestUGALStaysMostlyMinimalWhenUncongested: at low uniform load the
// generic UGAL routes predominantly minimally — but not entirely:
// the paper notes (Section 3.3) that generic UGAL leaks indirect
// routes whenever some indirect first-hop buffer happens to be
// emptier than the minimal one. That leak is what the threshold
// variant exists to fix.
func TestUGALStaysMostlyMinimalWhenUncongested(t *testing.T) {
	tp := mustMLFM(t, 4)
	simCfg := sim.TestConfig(2)
	u, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, C: 2}, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runLoad(t, tp, u, traffic.Uniform{N: tp.Nodes()}, 0.1, 10000)
	if res.IndirectFrac > 0.35 {
		t.Errorf("UGAL indirect fraction %.3f at low load, want mostly minimal", res.IndirectFrac)
	}
	if res.AvgHops > 2.5 {
		t.Errorf("AvgHops %.2f, want close to 2", res.AvgHops)
	}
}

// TestUGALGoesIndirectUnderWorstCase: under the adversarial shift the
// adaptive algorithm shifts a large share of packets to indirect
// routes and clearly beats minimal throughput.
func TestUGALGoesIndirectUnderWorstCase(t *testing.T) {
	tp := mustMLFM(t, 4)
	wc, err := traffic.WorstCase(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.TestConfig(2)
	u, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, C: 2}, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := runLoad(t, tp, u, wc, 1.0, 24000)
	minimal := runLoad(t, tp, routing.NewMinimal(tp), wc, 1.0, 24000)
	if adaptive.IndirectFrac < 0.5 {
		t.Errorf("adaptive indirect fraction %.3f under WC, want > 0.5", adaptive.IndirectFrac)
	}
	if adaptive.Throughput < minimal.Throughput*1.3 {
		t.Errorf("adaptive WC throughput %.3f should beat minimal %.3f", adaptive.Throughput, minimal.Throughput)
	}
}

// TestUGALThresholdCutsIndirectLeak: the threshold variant routes
// almost everything minimally at low load and leaks strictly fewer
// indirect routes than the generic algorithm under identical traffic
// (the Fig. 8/11/12 motivation).
func TestUGALThresholdCutsIndirectLeak(t *testing.T) {
	tp := mustOFT(t, 3)
	simCfg := sim.TestConfig(2)
	th, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, C: 2, Threshold: 0.1}, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, C: 2}, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	resTh := runLoad(t, tp, th, traffic.Uniform{N: tp.Nodes()}, 0.2, 10000)
	resGen := runLoad(t, tp, gen, traffic.Uniform{N: tp.Nodes()}, 0.2, 10000)
	if resTh.IndirectFrac > 0.05 {
		t.Errorf("thresholded UGAL indirect fraction %.3f at low load, want ~0", resTh.IndirectFrac)
	}
	if resTh.IndirectFrac >= resGen.IndirectFrac {
		t.Errorf("threshold (%.3f) should leak fewer indirect routes than generic (%.3f)",
			resTh.IndirectFrac, resGen.IndirectFrac)
	}
}

// TestSFAdaptiveCostModel: SF-A with the length-ratio cost model runs
// and adapts on the Slim Fly.
func TestSFAdaptiveCostModel(t *testing.T) {
	tp := mustSF(t, 5)
	simCfg := sim.TestConfig(4)
	sfA, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, CSF: 1, SFCost: true}, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sfA.NumVCs() != 4 {
		t.Fatalf("SF-A VCs = %d, want 4", sfA.NumVCs())
	}
	wc, err := traffic.WorstCase(tp, randSource())
	if err != nil {
		t.Fatal(err)
	}
	adaptive := runLoad(t, tp, sfA, wc, 1.0, 24000)
	minimal := runLoad(t, tp, routing.NewMinimal(tp), wc, 1.0, 24000)
	if adaptive.Throughput <= minimal.Throughput {
		t.Errorf("SF-A WC throughput %.3f should beat MIN %.3f", adaptive.Throughput, minimal.Throughput)
	}
	uni := runLoad(t, tp, sfA, traffic.Uniform{N: tp.Nodes()}, 0.5, 12000)
	if uni.Throughput < 0.4 {
		t.Errorf("SF-A uniform throughput %.3f at load 0.5", uni.Throughput)
	}
}

// TestMinimalMLFMColumnDiversity: on an idle network MIN spreads a
// same-column, different-layer pair over all h global routers of the
// column (the h-fold path diversity of Section 2.3.3), breaking the
// tie between equally idle ports at random.
func TestMinimalMLFMColumnDiversity(t *testing.T) {
	m := mustMLFM(t, 4)
	net, err := sim.NewNetwork(m, sim.TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	min := routing.NewMinimal(m)
	src, dst := net.Routers[m.LocalRouter(0, 1)], m.LocalRouter(2, 1)
	rng := rand.New(rand.NewSource(2))
	used := map[int]bool{}
	for trial := 0; trial < 200; trial++ {
		p := &sim.Packet{DstRouter: int32(dst), Minimal: true}
		port, _ := min.NextHop(p, src, rng)
		used[src.NeighborAt(port)] = true
	}
	if len(used) != m.H {
		t.Errorf("same-column routing used %d global routers, want %d", len(used), m.H)
	}
}

func randSource() *rand.Rand { return rand.New(rand.NewSource(7)) }
