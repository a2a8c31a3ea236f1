package sim_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// TestGoldenStatsTelemetry re-runs every golden scenario with a
// telemetry collector attached and checks the Results digests against
// the same golden file TestGoldenStatsIdentity uses: observation must
// not perturb the simulation, bit for bit. It also checks the
// collectors actually observed the runs — a silently detached
// collector would pass the identity check vacuously.
func TestGoldenStatsTelemetry(t *testing.T) {
	var cols []*telemetry.Collector
	telHook = func(e *sim.Engine) {
		c := telemetry.NewCollector(telemetry.Options{Label: "golden", RingEvents: 256})
		e.AttachTelemetry(c)
		cols = append(cols, c)
	}
	defer func() { telHook = nil }()

	got := make([]string, 0, len(goldenSpecs))
	for _, sc := range goldenSpecs {
		got = append(got, sc.name+" "+resultsDigest(runGoldenSerial(t, sc)))
	}
	want, err := readGoldenStats(t)
	if err != nil {
		t.Fatalf("missing golden stats: %v", err)
	}
	for i, g := range got {
		if g != want[i] {
			t.Errorf("telemetry perturbed the simulation:\n got %s\nwant %s", g, want[i])
		}
	}
	if len(cols) != len(goldenSpecs) {
		t.Fatalf("%d collectors attached for %d scenarios", len(cols), len(goldenSpecs))
	}
	faulted := 0
	for i, c := range cols {
		events := c.Snapshot().Events
		if events["deliver"] == 0 {
			t.Errorf("scenario %s: collector saw no deliveries (hook not wired?)", goldenSpecs[i].name)
		}
		// Every faulted scenario must have seen its failure burst.
		if goldenSpecs[i].name == "sf-min-faults" || goldenSpecs[i].name == "mlfm-min-mtbf" {
			faulted++
			if events["drop"] == 0 || events["retransmit"] == 0 {
				t.Errorf("%s: collector recorded no drop/retransmit events", goldenSpecs[i].name)
			}
		}
	}
	if faulted != 2 {
		t.Fatalf("expected 2 faulted scenarios in the golden set, saw %d", faulted)
	}
}

// TestTelemetryReconcilesWithResults: after a drained exchange, the
// collector's counters must agree exactly with the engine's Results —
// same injections (retransmissions re-count in both), same deliveries —
// and, with no drops, the link-flit total must equal packet size times
// the delivered hop count.
func TestTelemetryReconcilesWithResults(t *testing.T) {
	tp := mustMLFM(t, 3)
	ex := traffic.AllToAll(tp.Nodes(), 2, nil)
	e := buildEngine(t, tp, routing.NewValiant(tp), ex)
	c := telemetry.NewCollector(telemetry.Options{})
	e.AttachTelemetry(c)
	if !e.RunUntilDrained(4_000_000) {
		t.Fatal("a2a did not drain")
	}
	e.Finish()
	res := e.Results()
	snap := c.Snapshot()
	if snap.Injected != res.Injected {
		t.Errorf("telemetry injected %d, Results %d", snap.Injected, res.Injected)
	}
	if snap.Delivered != res.Delivered {
		t.Errorf("telemetry delivered %d, Results %d", snap.Delivered, res.Delivered)
	}
	if snap.Dropped != 0 || snap.Retransmits != 0 {
		t.Errorf("no-fault run recorded %d drops, %d retransmits", snap.Dropped, snap.Retransmits)
	}
	pktFlits := int64(sim.TestConfig(2).PacketFlits())
	if snap.FlitsDelivered != res.Delivered*pktFlits {
		t.Errorf("flits delivered %d, want %d", snap.FlitsDelivered, res.Delivered*pktFlits)
	}
	if snap.LinkFlits != snap.HopsDelivered*pktFlits {
		t.Errorf("link flits %d != hops %d x %d flits/pkt", snap.LinkFlits, snap.HopsDelivered, pktFlits)
	}
	if !snap.Finished {
		t.Error("snapshot not marked finished after Engine.Finish")
	}
	// Valiant routes packets indirectly; both histogram legs must have
	// samples and sum to the delivery count.
	nLat := snap.LatencyMinimal.N + snap.LatencyIndirect.N
	if nLat != res.Delivered {
		t.Errorf("latency samples %d, deliveries %d", nLat, res.Delivered)
	}
	if snap.LatencyIndirect.N == 0 {
		t.Error("Valiant run produced no indirect-latency samples")
	}
	if len(snap.Links) == 0 || len(snap.VCs) == 0 {
		t.Errorf("empty heatmap (%d links) or VC table (%d rows)", len(snap.Links), len(snap.VCs))
	}
}

// TestTelemetryTraceJSONL: the flight recorder exports parseable JSONL,
// the ring is bounded at the configured capacity, and total event
// counts keep counting past the eviction horizon.
func TestTelemetryTraceJSONL(t *testing.T) {
	tp := mustMLFM(t, 3)
	ex := traffic.AllToAll(tp.Nodes(), 1, nil)
	e := buildEngine(t, tp, routing.NewMinimal(tp), ex)
	c := telemetry.NewCollector(telemetry.Options{Label: "trace-test", RingEvents: 64})
	e.AttachTelemetry(c)
	if !e.RunUntilDrained(1_000_000) {
		t.Fatal("exchange did not drain")
	}
	e.Finish()

	var sb strings.Builder
	if err := c.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 64 {
		t.Fatalf("ring exported %d events, want the 64 most recent", len(lines))
	}
	validKinds := map[string]bool{
		"inject": true, "route": true, "vc-switch": true,
		"drop": true, "retransmit": true, "deliver": true,
	}
	var prevCycle int64 = -1
	for i, line := range lines {
		var ev struct {
			Label  string `json:"label"`
			Cycle  int64  `json:"cycle"`
			Kind   string `json:"kind"`
			Packet int64  `json:"packet"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		if ev.Label != "trace-test" {
			t.Fatalf("line %d label = %q", i, ev.Label)
		}
		if !validKinds[ev.Kind] {
			t.Fatalf("line %d has unknown kind %q", i, ev.Kind)
		}
		if ev.Cycle < prevCycle {
			t.Fatalf("events out of order: cycle %d after %d", ev.Cycle, prevCycle)
		}
		prevCycle = ev.Cycle
	}
	var total int64
	for _, n := range c.Snapshot().Events {
		total += n
	}
	if total <= 64 {
		t.Errorf("total event count %d; expected eviction beyond the 64-slot ring", total)
	}
}

// TestLinkStatsFaultRestitution pins the in-flight drop fix: flits that
// left a sender but were destroyed on the wire by a link failure must
// not count as carried traffic. A single packet crosses a triangle's
// direct link; a dry run finds the send cycle, then a second engine
// fails the link while the packet is mid-flight and the link's counter
// must read zero (the credit restituted), while retransmission still
// delivers the packet around the detour.
func TestLinkStatsFaultRestitution(t *testing.T) {
	const triangle = "routers 3\nnodes 0 1\nnodes 1 1\nnodes 2 1\n0 1\n0 2\n1 2\n"
	build := func() (*sim.Engine, *traffic.Exchange, *telemetry.Collector) {
		tp, err := topo.ReadEdgeList(strings.NewReader(triangle), "triangle")
		if err != nil {
			t.Fatal(err)
		}
		ex := traffic.NewExchange("one-shot", [][]traffic.Message{
			{{Dst: 1, Packets: 1}}, nil, nil,
		}, false)
		cfg := sim.TestConfig(1)
		cfg.LinkLatency = 8 // widen the in-flight window
		net, err := sim.NewNetwork(tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewEngine(net, routing.NewMinimal(tp), ex)
		if err != nil {
			t.Fatal(err)
		}
		c := telemetry.NewCollector(telemetry.Options{})
		e.AttachTelemetry(c)
		return e, ex, c
	}
	linkFlits := func(c *telemetry.Collector, from, to int) int64 {
		for _, l := range c.Snapshot().Links {
			if l.From == from && l.To == to {
				return l.Flits
			}
		}
		return 0
	}

	// Dry run: find the cycle the packet starts across link 0->1 (the
	// cycle its flits are credited to the counter).
	dry, _, dc := build()
	sentAt := int64(-1)
	for i := 0; i < 1000; i++ {
		dry.Step()
		if linkFlits(dc, 0, 1) > 0 {
			sentAt = dry.Now() - 1 // the credit landed during this Step
			break
		}
	}
	if sentAt < 0 {
		t.Fatal("dry run: packet never crossed link 0->1")
	}

	// Fault run: kill the link one cycle after the send starts — the
	// packet is on the wire (LinkLatency 8) and must be dropped.
	e, ex, c := build()
	fs := sim.NewFaultSchedule([]sim.FaultEvent{{Cycle: sentAt + 2, Link: [2]int{0, 1}}})
	if err := e.SetFaultSchedule(fs); err != nil {
		t.Fatal(err)
	}
	if !e.RunUntilDrained(1_000_000) {
		t.Fatalf("faulted exchange did not drain: %+v", e.Results())
	}
	e.Finish()
	res := e.Results()
	if res.Faults.Dropped != 1 {
		t.Fatalf("dropped %d packets, want exactly the in-flight one", res.Faults.Dropped)
	}
	if res.Delivered != ex.TotalPackets() {
		t.Fatalf("delivered %d of %d", res.Delivered, ex.TotalPackets())
	}
	// The credit for the dropped traversal must have been restituted.
	if got := linkFlits(c, 0, 1); got != 0 {
		t.Errorf("dead link 0->1 credited %d flits; dropped traffic must not count", got)
	}
	// The retransmitted packet detoured via router 2.
	for _, link := range [][2]int{{0, 2}, {2, 1}} {
		if got := linkFlits(c, link[0], link[1]); got != 4 {
			t.Errorf("detour link %v carried %d flits, want 4", link, got)
		}
	}
	snap := c.Snapshot()
	if snap.LinkFlits != 8 {
		t.Errorf("telemetry link-flit total %d, want 8 (two detour hops)", snap.LinkFlits)
	}
	if snap.Dropped != 1 || snap.Retransmits != 1 {
		t.Errorf("telemetry saw %d drops, %d retransmits; want 1, 1", snap.Dropped, snap.Retransmits)
	}
}

// readGoldenStats loads the golden digest lines TestGoldenStatsIdentity
// maintains.
func readGoldenStats(t *testing.T) ([]string, error) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_stats.txt"))
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"), nil
}
