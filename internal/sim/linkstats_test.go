package sim_test

import (
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/traffic"
)

// windowLinks runs e through warmup unobserved, then attaches a
// collector for the remaining total-warmup cycles and returns its link
// heatmap (hottest first): observation starts at the attach cycle, so
// the loads are normalized by the measurement window alone.
func windowLinks(e *sim.Engine, warmup, total int64) []telemetry.LinkSnap {
	e.Warmup = warmup
	e.Run(warmup)
	c := telemetry.NewCollector(telemetry.Options{})
	e.AttachTelemetry(c)
	e.Run(total - warmup)
	e.Finish()
	return c.Snapshot().Links
}

// TestLinkStatsWorstCaseHotspot verifies the Section 4.2 structure
// directly: under the MLFM adversarial shift with minimal routing,
// the hottest links run at (or near) full utilization while delivered
// throughput is pinned at 1/h — the single-minimal-path bottleneck
// made visible.
func TestLinkStatsWorstCaseHotspot(t *testing.T) {
	tp := mustMLFM(t, 4)
	wc, err := traffic.WorstCase(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.TestConfig(1)
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: wc, Load: 1.0, PacketFlits: cfg.PacketFlits()}
	e, err := sim.NewEngine(net, routing.NewMinimal(tp), w)
	if err != nil {
		t.Fatal(err)
	}
	loads := windowLinks(e, 3000, 18000)

	res := e.Results()
	if res.Throughput > 0.3 {
		t.Fatalf("WC throughput %.3f, expected pinned near 1/h", res.Throughput)
	}
	if len(loads) == 0 {
		t.Fatal("no link loads recorded")
	}
	if got := loads[0].Load; got < 0.9 {
		t.Errorf("hottest link at %.3f utilization, want ~1.0 (saturated bottleneck)", got)
	}
	if loads[0].Load < loads[len(loads)-1].Load {
		t.Error("snapshot links not sorted by decreasing load")
	}
	// The WC pattern loads every source router's single minimal path:
	// a large set of saturated links, not one.
	hot := 0
	for _, l := range loads {
		if l.Load > 0.9 {
			hot++
		}
	}
	if hot < tp.Graph().N()/4 {
		t.Errorf("only %d hot links; the shift pattern should saturate one per endpoint router", hot)
	}
}

// TestLinkStatsUniformBalance: uniform traffic under minimal routing
// spreads load evenly — no link should run far above the mean.
func TestLinkStatsUniformBalance(t *testing.T) {
	tp := mustOFT(t, 3)
	cfg := sim.TestConfig(1)
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &traffic.OpenLoop{Pattern: traffic.Uniform{N: tp.Nodes()}, Load: 0.5, PacketFlits: cfg.PacketFlits()}
	e, err := sim.NewEngine(net, routing.NewMinimal(tp), w)
	if err != nil {
		t.Fatal(err)
	}
	loads := windowLinks(e, 2000, 12000)
	if len(loads) == 0 {
		t.Fatal("no link loads recorded")
	}
	var sum float64
	for _, l := range loads {
		sum += l.Load
	}
	mean := sum / float64(len(loads))
	if loads[0].Load > 3*mean+0.1 {
		t.Errorf("max link load %.3f vs mean %.3f: uniform traffic unexpectedly skewed", loads[0].Load, mean)
	}
}
