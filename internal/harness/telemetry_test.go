package harness

import (
	"strings"
	"testing"

	"diam2/internal/telemetry"
	"diam2/internal/traffic"
)

// telScale trims QuickScale and opts runs into a telemetry sink.
func telScale(workers int, sink *TelemetrySink) Scale {
	sc := QuickScale()
	sc.Cycles = 6000
	sc.Warmup = 1200
	sc.Sched = Sched{Workers: workers}
	sc.Telemetry = TelemetryPlan{Sink: sink}
	return sc
}

// TestTelemetrySweepParallelDeterminism: a sweep's exported trace and
// heatmap must be byte-identical for Workers=1 and Workers=4 — the
// scheduler-determinism contract extended to telemetry bundles.
func TestTelemetrySweepParallelDeterminism(t *testing.T) {
	p := SmallPresets()[1] // MLFM(6)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.2, 0.5, 0.8}
	run := func(workers int) (string, string) {
		sink := &TelemetrySink{}
		if _, _, err := SaturationPoint(tp, AlgMIN, p.BestAdaptive, PatUNI, loads, 0.05, telScale(workers, sink)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sink.Len() != len(loads) {
			t.Fatalf("workers=%d: %d bundles for %d points", workers, sink.Len(), len(loads))
		}
		var trace, heat strings.Builder
		if err := sink.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if err := sink.WriteHeatmapCSV(&heat); err != nil {
			t.Fatal(err)
		}
		return trace.String(), heat.String()
	}
	serialTrace, serialHeat := run(1)
	parallelTrace, parallelHeat := run(4)
	if serialTrace == "" {
		t.Fatal("sweep produced an empty trace")
	}
	if serialTrace != parallelTrace {
		t.Error("serial and 4-worker traces differ")
	}
	if serialHeat != parallelHeat {
		t.Errorf("serial and 4-worker heatmaps differ:\n%s\n---\n%s", serialHeat, parallelHeat)
	}
}

// TestTelemetryPointReconciliation: a run's telemetry bundle must agree
// with its Results and carry the point's identity in the label.
func TestTelemetryPointReconciliation(t *testing.T) {
	p := SmallPresets()[1]
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := &TelemetrySink{}
	res, err := RunSynthetic(tp, AlgMIN, p.BestAdaptive, PatUNI, 0.4, telScale(1, sink))
	if err != nil {
		t.Fatal(err)
	}
	snaps := sink.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("%d bundles for one run", len(snaps))
	}
	snap := snaps[0]
	if snap.Delivered != res.Delivered || snap.Injected != res.Injected {
		t.Errorf("telemetry (inj %d, del %d) vs Results (inj %d, del %d)",
			snap.Injected, snap.Delivered, res.Injected, res.Delivered)
	}
	if !snap.Finished {
		t.Error("bundle not finished after RunSynthetic returned")
	}
	for _, part := range []string{tp.Name(), "MIN", "UNI", "load=0.4000"} {
		if !strings.Contains(snap.Label, part) {
			t.Errorf("label %q missing %q", snap.Label, part)
		}
	}
}

// TestTelemetryExchangeConservation: over a drained fault-free
// exchange, the aggregated link flits equal packet size times the
// delivered hop count, and the sink totals match the exchange volume.
func TestTelemetryExchangeConservation(t *testing.T) {
	p := SmallPresets()[1]
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := &TelemetrySink{}
	sc := telScale(1, sink)
	ex := traffic.AllToAll(tp.Nodes(), 1, nil)
	if _, _, err := RunExchange(tp, AlgMIN, p.BestAdaptive, ex, sc); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshots()[0]
	if snap.Delivered != ex.TotalPackets() {
		t.Errorf("telemetry delivered %d, exchange volume %d", snap.Delivered, ex.TotalPackets())
	}
	pktFlits := int64(sc.SimConfig(1).PacketFlits())
	if snap.LinkFlits != snap.HopsDelivered*pktFlits {
		t.Errorf("link flits %d != hops %d x %d", snap.LinkFlits, snap.HopsDelivered, pktFlits)
	}
	totals := sink.Totals()
	if totals.Points != 1 || totals.Delivered != snap.Delivered || totals.LinkFlits != snap.LinkFlits {
		t.Errorf("sink totals inconsistent: %+v", totals)
	}
}

// TestTelemetryRegistryDrains: with a live registry on the plan, every
// point attaches during its run and detaches at completion, so after
// the sweep the registry holds no active collectors and its
// completed-run aggregates cover the whole sweep.
func TestTelemetryRegistryDrains(t *testing.T) {
	p := SmallPresets()[1]
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := &TelemetrySink{}
	reg := telemetry.NewRegistry()
	sc := telScale(4, sink)
	sc.Telemetry.Registry = reg
	loads := []float64{0.2, 0.5}
	if _, _, err := SaturationPoint(tp, AlgMIN, p.BestAdaptive, PatUNI, loads, 0.05, sc); err != nil {
		t.Fatal(err)
	}
	rs := reg.Snapshot()
	if len(rs.Active) != 0 {
		t.Errorf("%d collectors still active after the sweep", len(rs.Active))
	}
	if got := rs.Counters["runs.completed"]; got != int64(len(loads)) {
		t.Errorf("registry completed %d runs, want %d", got, len(loads))
	}
	if want := sink.Totals().Delivered; rs.Counters["runs.delivered"] != want {
		t.Errorf("registry delivered %d, sink %d", rs.Counters["runs.delivered"], want)
	}
}
