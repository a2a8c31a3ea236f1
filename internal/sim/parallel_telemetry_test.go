package sim_test

import (
	"testing"

	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/topo"
)

// TestParallelTelemetryWorkerCycles exercises the one telemetry channel
// an engine has from two shards up: an attached collector receives the
// per-worker cycle counters at Finish, and they appear in the
// snapshot. The workers meet at every epoch boundary, the stopping one
// included, so after Run(n) every worker has completed exactly n cycles.
func TestParallelTelemetryWorkerCycles(t *testing.T) {
	tp, err := topo.NewMLFM(3)
	if err != nil {
		t.Fatal(err)
	}
	pe := benchParallel(t, tp, sim.TestConfig, 0.2, 2, 2)
	defer pe.Stop()
	c := telemetry.NewCollector(telemetry.Options{Label: "par"})
	pe.AttachTelemetry(c)
	const cycles = 500
	pe.Run(cycles)
	pe.Finish()
	wc := c.WorkerCycles()
	if len(wc) != pe.Workers() {
		t.Fatalf("collector holds %d worker counters, engine has %d workers", len(wc), pe.Workers())
	}
	for w, n := range wc {
		if n != cycles {
			t.Errorf("worker %d completed %d cycles, want %d", w, n, cycles)
		}
	}
	snap := c.Snapshot(0)
	if len(snap.WorkerCycles) != pe.Workers() {
		t.Errorf("snapshot WorkerCycles has %d entries, want %d", len(snap.WorkerCycles), pe.Workers())
	}
	// A one-shard run never sets the counters; the field must
	// stay absent so existing snapshot consumers see no change.
	if got := telemetry.NewCollector(telemetry.Options{}).Snapshot(0).WorkerCycles; got != nil {
		t.Errorf("fresh collector snapshot carries WorkerCycles %v, want nil", got)
	}
}
