package fluid

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"diam2/internal/graph"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// disconnectedTopo is a two-router network with no link between the
// routers: every cross-router flow is unroutable, the failure mode
// Model.Check must report instead of silently dropping the flows.
type disconnectedTopo struct{}

func (disconnectedTopo) Name() string         { return "disconnected(2)" }
func (disconnectedTopo) Graph() *graph.Graph  { return graph.New(2) }
func (disconnectedTopo) Nodes() int           { return 2 }
func (disconnectedTopo) NodeRouter(n int) int { return n }
func (disconnectedTopo) RouterNodes(r int) []int {
	return []int{r}
}
func (disconnectedTopo) EndpointRouters() []int { return []int{0, 1} }
func (disconnectedTopo) Radix() int             { return 1 }

// TestZeroLoadLatencyPaperConfigs pins the analytic zero-load latency
// on the paper configurations against the closed form it must reduce
// to: with diameter-two minimal routing the mean hop count rounds to
// 2, so the base is 3 link + 3 switch traversals plus packet
// serialization, independent of the traffic's link loads.
func TestZeroLoadLatencyPaperConfigs(t *testing.T) {
	builds := map[string]func() (topo.Topology, error){
		"SF(q=13,p=9)": func() (topo.Topology, error) { return topo.NewSlimFly(13, topo.RoundDown) },
		"MLFM(h=15)":   func() (topo.Topology, error) { return topo.NewMLFM(15) },
		"OFT(k=12)":    func() (topo.Topology, error) { return topo.NewOFT(12) },
	}
	cfg := sim.DefaultConfig(1)
	want := float64(3*cfg.LinkLatency+3*cfg.SwitchLatency) + float64(cfg.PacketFlits())
	for name, build := range builds {
		tp, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		model := New(tp)
		loads := model.Minimal(uniform(t, model))
		if hops := loads.hops; hops < 1.5 || hops > 2 {
			t.Errorf("%s: uniform mean hops %.3f outside (1.5, 2] for a diameter-two network", name, hops)
		}
		if got := avgLatency(loads, 0, cfg); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: zero-load latency %.2f, want %.2f cycles", name, got, want)
		}
	}
}

// TestLatencyTracksSimulatorAtLowLoad compares the full M/D/1 estimate
// (not just the base) against the simulator's measured packet latency
// at 10% offered load, where queueing is mild and the model should be
// within pipeline granularity of the measurement.
func TestLatencyTracksSimulatorAtLowLoad(t *testing.T) {
	tp, err := topo.NewOFT(6)
	if err != nil {
		t.Fatal(err)
	}
	model := New(tp)
	cfg := sim.TestConfig(1)
	est := EstimateAt(model.Minimal(uniform(t, model)), 0.1, cfg)
	if est.Saturated() {
		t.Fatalf("10%% load reported saturated (saturation %.3f)", est.Saturation)
	}
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: traffic.Uniform{N: tp.Nodes()}, Load: 0.1, PacketFlits: cfg.PacketFlits()}
	e, err := sim.NewEngine(net, routingMin(tp), w)
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup = 2000
	e.Run(16000)
	simLat := e.Results().AvgNetLatency
	if simLat < est.AvgLatency*0.6 || simLat > est.AvgLatency*1.6 {
		t.Errorf("analytic latency %.1f vs simulated %.1f at 10%% load: outside 0.6x..1.6x", est.AvgLatency, simLat)
	}
}

// TestEstimateSaturationSentinel: at and beyond saturation the
// estimate reports the negative latency sentinel (JSON-safe) and
// Saturated() is true; below, latency is finite and positive.
func TestEstimateSaturationSentinel(t *testing.T) {
	tp, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := traffic.WorstCase(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := minimalPermutation(New(tp), wc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.TestConfig(1)
	below := EstimateAt(loads, 0.1, cfg)
	if below.Saturated() || below.AvgLatency <= 0 {
		t.Errorf("below saturation: latency %.2f, Saturated=%v; want finite positive", below.AvgLatency, below.Saturated())
	}
	at := EstimateAt(loads, 0.5, cfg)
	if !at.Saturated() || at.AvgLatency >= 0 {
		t.Errorf("beyond saturation (sat %.3f): latency %.2f, Saturated=%v; want negative sentinel", at.Saturation, at.AvgLatency, at.Saturated())
	}
	if math.IsInf(at.AvgLatency, 0) || math.IsNaN(at.AvgLatency) {
		t.Errorf("sentinel %v would not survive a JSON round trip", at.AvgLatency)
	}
	if at.Throughput != at.Saturation {
		t.Errorf("beyond saturation throughput %.3f, want the plateau %.3f", at.Throughput, at.Saturation)
	}
}

// TestEvaluateErrorPaths: both demand constructors report a
// disconnected topology as a typed error rather than optimistic
// numbers — the flows between unreachable routers would otherwise
// vanish from the loads — and pass a connected one.
func TestEvaluateErrorPaths(t *testing.T) {
	model := New(disconnectedTopo{})
	if err := model.Check(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Check on disconnected topology = %v, want ErrDisconnected", err)
	}
	if _, err := model.Uniform(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Uniform on disconnected topology = %v, want ErrDisconnected", err)
	}
	perm := make([]int, disconnectedTopo{}.Nodes())
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	if _, err := model.Permutation(traffic.Permutation{Perm: perm}); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Permutation on disconnected topology = %v, want ErrDisconnected", err)
	}

	tp, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tp)
	if err := m.Check(); err != nil {
		t.Fatalf("Check on connected topology: %v", err)
	}
	if _, err := m.Uniform(); err != nil {
		t.Errorf("Uniform on connected topology: %v", err)
	}
}

// TestLoadsMeanHops: flow conservation turns total link load into the
// mean hop count — for the MLFM worst case every flow crosses exactly
// two links, so the mean is exactly 2; Valiant doubles the legs, so
// the mean is exactly 4.
func TestLoadsMeanHops(t *testing.T) {
	tp, err := topo.NewMLFM(6)
	if err != nil {
		t.Fatal(err)
	}
	model := New(tp)
	wc, err := traffic.WorstCase(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := model.Permutation(wc)
	if err != nil {
		t.Fatal(err)
	}
	if hops := model.Minimal(d).hops; math.Abs(hops-2) > 1e-9 {
		t.Errorf("WC MIN mean hops %.6f, want exactly 2", hops)
	}
	if hops := model.Valiant(d).hops; math.Abs(hops-4) > 1e-6 {
		t.Errorf("WC INR mean hops %.6f, want exactly 4 (two minimal legs)", hops)
	}
	// Counting router hops per flow directly must agree with flow
	// conservation (above).
	var sum float64
	for src, dst := range wc.Perm {
		sum += float64(model.dist[tp.NodeRouter(src)][tp.NodeRouter(dst)])
	}
	if direct := sum / float64(len(wc.Perm)); math.Abs(direct-2) > 1e-9 {
		t.Errorf("direct mean hops %.6f, want exactly 2", direct)
	}
	// The identity permutation never leaves a router: zero mean hops.
	ident := make([]int, tp.Nodes())
	for i := range ident {
		ident[i] = i
	}
	id, err := model.Permutation(traffic.Permutation{Perm: ident})
	if err != nil {
		t.Fatal(err)
	}
	if h := model.Minimal(id).hops; h != 0 {
		t.Errorf("identity mean hops %.6f, want 0", h)
	}
}

// TestValiantUniformAggregation: Valiant's closed form for uniform
// demand must equal the generic per-pair path over (src, dst,
// intermediate) router triples, run on the same demand with the
// uniform mark cleared.
func TestValiantUniformAggregation(t *testing.T) {
	tp, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tp)
	d := uniform(t, m)
	got := m.Valiant(d)
	d.uniform = false
	want := m.Valiant(d)
	if linksUsed(got.load) != linksUsed(want.load) {
		t.Fatalf("closed form uses %d links, per-pair path %d", linksUsed(got.load), linksUsed(want.load))
	}
	for link, v := range want.load {
		if math.Abs(got.load[link]-v) > 1e-9 {
			t.Errorf("link %d: closed form %.9f, per-pair path %.9f", link, got.load[link], v)
		}
	}
}

// TestMinimalAggregatesPermutation: spreading a permutation by router
// pair (Minimal on its Demand) is the per-node even split it replaced,
// kept here as the oracle: every node flow spread on its own, in node
// order. Twenty seeded random permutations per small family must agree
// on every link to 1e-12 relative; the test logs whether the bits
// matched too.
func TestMinimalAggregatesPermutation(t *testing.T) {
	builds := []func() (topo.Topology, error){
		func() (topo.Topology, error) { return topo.NewSlimFly(5, topo.RoundDown) },
		func() (topo.Topology, error) { return topo.NewMLFM(6) },
		func() (topo.Topology, error) { return topo.NewOFT(6) },
	}
	for _, b := range builds {
		tp, err := b()
		if err != nil {
			t.Fatal(err)
		}
		m := New(tp)
		links, differ := 0, 0
		for seed := int64(1); seed <= 20; seed++ {
			perm := traffic.Permutation{Perm: rand.New(rand.NewSource(seed)).Perm(tp.Nodes())}
			got, err := minimalPermutation(m, perm)
			if err != nil {
				t.Fatal(err)
			}
			want := m.newLoad()
			for src, dst := range perm.Perm {
				m.addFlow(want, tp.NodeRouter(src), tp.NodeRouter(dst), 1)
			}
			for link, v := range want {
				links++
				if got.load[link] != v {
					differ++
				}
				if math.Abs(got.load[link]-v) > 1e-12*math.Abs(v) {
					t.Fatalf("%s seed %d link %d: by router pair %v, per node %v", tp.Name(), seed, link, got.load[link], v)
				}
			}
		}
		t.Logf("%s: %d of %d link loads differ in their bits from the per-node split (all within 1e-12)", tp.Name(), differ, links)
	}
}
