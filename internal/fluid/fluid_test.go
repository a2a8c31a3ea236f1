package fluid

import (
	"math"
	"math/rand"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// routingMin builds the generic minimal router (aliased to avoid an
// import cycle in older layouts; fluid itself does not depend on
// routing).
func routingMin(tp topo.Topology) sim.RoutingAlgorithm { return routing.NewMinimal(tp) }

// uniform is the model's uniform demand; the test fails on a
// disconnected topology.
func uniform(t testing.TB, m *Model) Demand {
	t.Helper()
	d, err := m.Uniform()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// minimalPermutation is the link loads of a node permutation under
// minimal routing.
func minimalPermutation(m *Model, perm traffic.Permutation) (LinkLoads, error) {
	d, err := m.Permutation(perm)
	if err != nil {
		return LinkLoads{}, err
	}
	return m.Minimal(d), nil
}

// TestWorstCaseClosedForms: the fluid model recovers the Section 4.2
// saturation bounds exactly.
func TestWorstCaseClosedForms(t *testing.T) {
	m6, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := traffic.WorstCase(m6, nil)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := minimalPermutation(New(m6), wc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loads.Saturation(), 1.0/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("MLFM(6) WC saturation = %v, want exactly 1/h = %v", got, want)
	}

	o6, err := topo.NewOFT(6)
	if err != nil {
		t.Fatal(err)
	}
	wcO, err := traffic.WorstCase(o6, nil)
	if err != nil {
		t.Fatal(err)
	}
	loadsO, err := minimalPermutation(New(o6), wcO)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loadsO.Saturation(), 1.0/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("OFT(6) WC saturation = %v, want exactly 1/k = %v", got, want)
	}
}

// TestSlimFlyWorstCaseBound: the SF greedy pairing approaches 1/(2p);
// pairs without a forced overlap can only raise the bound.
func TestSlimFlyWorstCaseBound(t *testing.T) {
	sf, err := topo.NewSlimFly(5, topo.RoundDown)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := traffic.WorstCase(sf, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	loads, err := minimalPermutation(New(sf), wc)
	if err != nil {
		t.Fatal(err)
	}
	sat := loads.Saturation()
	bound := 1.0 / (2 * float64(sf.P))
	if sat < bound-1e-9 || sat > 2*bound {
		t.Errorf("SF WC saturation %v, want within [1/(2p), 2/(2p)) = [%v, %v)", sat, bound, 2*bound)
	}
}

// TestUniformNearFull: uniform traffic under minimal routing is
// near-balanced on all three topologies (full global bandwidth).
func TestUniformNearFull(t *testing.T) {
	builds := []func() (topo.Topology, error){
		func() (topo.Topology, error) { return topo.NewSlimFly(5, topo.RoundDown) },
		func() (topo.Topology, error) { return topo.NewMLFM(4) },
		func() (topo.Topology, error) { return topo.NewOFT(4) },
	}
	for _, b := range builds {
		tp, err := b()
		if err != nil {
			t.Fatal(err)
		}
		m := New(tp)
		loads := m.Minimal(uniform(t, m))
		if sat := loads.Saturation(); sat < 0.85 {
			t.Errorf("%s uniform saturation %v, want near 1 (full global bandwidth)", tp.Name(), sat)
		}
	}
}

// TestValiantHalvesWorstCase: INR lifts the worst-case saturation to
// roughly half of uniform on the MLFM.
func TestValiantHalvesWorstCase(t *testing.T) {
	m6, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := traffic.WorstCase(m6, nil)
	if err != nil {
		t.Fatal(err)
	}
	model := New(m6)
	d, err := model.Permutation(wc)
	if err != nil {
		t.Fatal(err)
	}
	loads := model.Valiant(d)
	sat := loads.Saturation()
	if sat < 0.35 || sat > 0.65 {
		t.Errorf("MLFM WC INR saturation %v, want ~0.5", sat)
	}
}

// TestFluidAgreesWithSimulator: the analytic saturation predicts the
// simulated throughput plateau for the MLFM worst case under both
// routings.
func TestFluidAgreesWithSimulator(t *testing.T) {
	// Simulated plateaus measured by the harness tests: MIN pins at
	// 1/h; the fluid model must match those independently derived
	// values. (The INR simulation lands within ~15% of the fluid
	// prediction; queueing effects the fluid model ignores account
	// for the gap.)
	m6, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := traffic.WorstCase(m6, nil)
	if err != nil {
		t.Fatal(err)
	}
	min, err := minimalPermutation(New(m6), wc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(min.Saturation()-1.0/6) > 1e-9 {
		t.Errorf("fluid MIN saturation %v != simulated plateau 1/6", min.Saturation())
	}
}

// TestFlowConservation: the total load injected equals the total
// link-load-weighted path length (sum over links = sum over flows of
// path length).
func TestFlowConservation(t *testing.T) {
	m4, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := traffic.WorstCase(m4, nil)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := minimalPermutation(New(m4), wc)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range loads.load {
		total += v
	}
	// Every flow crosses exactly 2 links (diameter-two worst case,
	// all cross-router), so total link load = 2 * N.
	want := 2 * float64(m4.Nodes())
	if math.Abs(total-want) > 1e-6 {
		t.Errorf("total link load %v, want %v", total, want)
	}
}

// TestPathSplitting: a multi-path pair splits its flow evenly (MLFM
// same-column pair over h global routers).
func TestPathSplitting(t *testing.T) {
	m4, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	model := New(m4)
	load := model.newLoad()
	src := m4.LocalRouter(0, 2)
	dst := m4.LocalRouter(3, 2) // same column: h = 4 minimal paths
	model.addFlow(load, src, dst, 1)
	if n := linksUsed(load); n != 8 { // 4 paths x 2 links
		t.Fatalf("links used = %d, want 8", n)
	}
	for link, v := range load {
		if v != 0 && math.Abs(v-0.25) > 1e-9 {
			t.Errorf("link %d load %v, want 0.25", link, v)
		}
	}
	// Each path leaves src on its own link and enters dst on its own.
	loads := model.linkLoads(load, Demand{})
	var out, in float64
	for _, v := range m4.Graph().Neighbors(src) {
		out += loads.At(src, v)
	}
	for _, u := range m4.Graph().Neighbors(dst) {
		in += loads.At(u, dst)
	}
	if math.Abs(out-1) > 1e-9 || math.Abs(in-1) > 1e-9 {
		t.Errorf("flow out of src %v, into dst %v; want 1 each", out, in)
	}
}

// linksUsed counts the links carrying load.
func linksUsed(load []float64) int {
	n := 0
	for _, v := range load {
		if v > 0 {
			n++
		}
	}
	return n
}

// TestLatencyModelShape: the analytic latency curve is monotone in
// load, finite below saturation, infinite beyond, and reproduces the
// hockey stick (sharp growth near saturation).
func TestLatencyModelShape(t *testing.T) {
	m6, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	model := New(m6)
	loads := model.Minimal(uniform(t, model))
	cfg := sim.DefaultConfig(1)
	base := avgLatency(loads, 0, cfg)
	if base <= 0 {
		t.Fatal("zero-load latency not positive")
	}
	prev := base
	for _, x := range []float64{0.2, 0.5, 0.8, 0.95} {
		lat := avgLatency(loads, x, cfg)
		if math.IsInf(lat, 1) {
			t.Fatalf("latency infinite at load %v below saturation %v", x, loads.Saturation())
		}
		if lat < prev {
			t.Fatalf("latency not monotone at load %v", x)
		}
		prev = lat
	}
	// Hockey stick: latency at 0.95 well above zero-load.
	if prev < base*1.2 {
		t.Errorf("latency at 0.95 load (%v) barely above base (%v)", prev, base)
	}
	// Beyond saturation: infinite.
	if !math.IsInf(avgLatency(loads, 1.2, cfg), 1) {
		t.Error("latency finite beyond saturation")
	}
}

// TestLatencyModelTracksSimulatorBase: at very low load the analytic
// base latency matches the simulator's measured average within the
// pipeline granularity.
func TestLatencyModelTracksSimulatorBase(t *testing.T) {
	m4, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	model := New(m4)
	cfg := sim.TestConfig(1)
	analytic := avgLatency(model.Minimal(uniform(t, model)), 0.05, cfg)

	net, err := sim.NewNetwork(m4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: traffic.Uniform{N: m4.Nodes()}, Load: 0.05, PacketFlits: cfg.PacketFlits()}
	e, err := sim.NewEngine(net, routingMin(m4), w)
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup = 1000
	e.Run(8000)
	simLat := e.Results().AvgNetLatency
	if simLat < analytic*0.6 || simLat > analytic*1.6 {
		t.Errorf("analytic base %v vs simulated %v: model misses the physical latency", analytic, simLat)
	}
}
