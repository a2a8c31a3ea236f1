package fluid

import (
	"errors"
	"math"
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
		loads, hops, err := model.Loads(PatternUniform, RoutingMinimal, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hops < 1.5 || hops > 2 {
			t.Errorf("%s: uniform mean hops %.3f outside (1.5, 2] for a diameter-two network", name, hops)
		}
		got := NewLatency(model, cfg).AvgLatency(loads, hops, 0)
		if math.Abs(got-want) > 1e-9 {
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
	est, err := model.Evaluate(PatternUniform, RoutingMinimal, nil, 0.1, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	model := New(tp)
	wc, err := traffic.WorstCase(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.TestConfig(1)
	below, err := model.Evaluate(PatternWorstCase, RoutingMinimal, &wc, 0.1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if below.Saturated() || below.AvgLatency <= 0 {
		t.Errorf("below saturation: latency %.2f, Saturated=%v; want finite positive", below.AvgLatency, below.Saturated())
	}
	at, err := model.Evaluate(PatternWorstCase, RoutingMinimal, &wc, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
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

// TestEvaluateErrorPaths: the screening surface reports disconnected
// topologies and unsupported routings as typed errors rather than
// optimistic numbers.
func TestEvaluateErrorPaths(t *testing.T) {
	model := New(disconnectedTopo{})
	if err := model.Check(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Check on disconnected topology = %v, want ErrDisconnected", err)
	}
	if _, err := model.Evaluate(PatternUniform, RoutingMinimal, nil, 0.5, sim.TestConfig(1)); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Evaluate on disconnected topology = %v, want ErrDisconnected", err)
	}

	tp, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tp)
	if err := m.Check(); err != nil {
		t.Fatalf("Check on connected topology: %v", err)
	}
	if _, _, err := m.Loads(PatternUniform, Routing(99), nil); !errors.Is(err, ErrUnsupportedRouting) {
		t.Errorf("Loads with bogus routing = %v, want ErrUnsupportedRouting", err)
	}
	if _, _, err := m.Loads(PatternWorstCase, RoutingMinimal, nil); err == nil {
		t.Error("Loads(WC) without a permutation succeeded, want error")
	}
	if _, _, err := m.Loads(Pattern(99), RoutingMinimal, nil); err == nil {
		t.Error("Loads with bogus pattern succeeded, want error")
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
	_, hops, err := model.Loads(PatternWorstCase, RoutingMinimal, &wc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hops-2) > 1e-9 {
		t.Errorf("WC MIN mean hops %.6f, want exactly 2", hops)
	}
	_, hopsINR, err := model.Loads(PatternWorstCase, RoutingValiant, &wc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hopsINR-4) > 1e-6 {
		t.Errorf("WC INR mean hops %.6f, want exactly 4 (two minimal legs)", hopsINR)
	}
	// AvgMinimalHops counts router hops per flow directly; flow
	// conservation (above) must agree with it.
	if direct := model.AvgMinimalHops(wc.Perm); math.Abs(direct-2) > 1e-9 {
		t.Errorf("AvgMinimalHops %.6f, want exactly 2", direct)
	}
	// The identity permutation never leaves a router: zero mean hops.
	ident := make([]int, tp.Nodes())
	for i := range ident {
		ident[i] = i
	}
	if h := model.AvgMinimalHops(ident); h != 0 {
		t.Errorf("AvgMinimalHops(identity) = %.6f, want 0", h)
	}
	// Permutations must cover every node; a partial one is an error,
	// under both routings.
	short := traffic.Permutation{Perm: []int{0}}
	if _, err := model.MinimalPermutation(short); err == nil {
		t.Error("MinimalPermutation accepted a partial permutation")
	}
	if _, err := model.ValiantPermutation(short); err == nil {
		t.Error("ValiantPermutation accepted a partial permutation")
	}
}

// TestValiantUniformAggregation: the O(E^2) aggregated ValiantUniform
// must equal the brute-force triple loop over (src, dst, intermediate)
// router triples.
func TestValiantUniformAggregation(t *testing.T) {
	tp, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tp)
	got := m.ValiantUniform()

	want := m.newLoad()
	eps := m.tp.EndpointRouters()
	n := float64(m.tp.Nodes())
	rate := 1.0 / (n - 1)
	for _, rs := range eps {
		ps := float64(len(m.tp.RouterNodes(rs)))
		for _, rd := range eps {
			if rs == rd {
				continue
			}
			pd := float64(len(m.tp.RouterNodes(rd)))
			flow := ps * pd * rate
			usable := 0
			for _, ri := range eps {
				if ri != rs && ri != rd {
					usable++
				}
			}
			w := flow / float64(usable)
			for _, ri := range eps {
				if ri == rs || ri == rd {
					continue
				}
				m.addFlow(want, rs, ri, w)
				m.addFlow(want, ri, rd, w)
			}
		}
	}
	if linksUsed(got.load) != linksUsed(want) {
		t.Fatalf("aggregated uses %d links, brute force %d", linksUsed(got.load), linksUsed(want))
	}
	for link, v := range want {
		if math.Abs(got.load[link]-v) > 1e-9 {
			t.Errorf("link %d: aggregated %.9f, brute force %.9f", link, got.load[link], v)
		}
	}
}
