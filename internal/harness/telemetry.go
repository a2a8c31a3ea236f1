package harness

import (
	"io"
	"sort"
	"sync"

	"diam2/internal/sim"
	"diam2/internal/telemetry"
)

// TelemetryPlan rides on a Scale and opts a sweep's runs into the
// unified telemetry layer: every point that executes with a non-nil
// Sink attaches a fresh collector to its engine and deposits it in the
// sink when the run completes. Collection is deterministic under the
// parallel scheduler: each point's collector observes only its own
// single-threaded engine, and the sink orders bundles by label — a
// pure function of the point's parameters — so traces and heatmaps are
// byte-identical for any worker count.
type TelemetryPlan struct {
	// Sink receives one collector per completed run; nil disables
	// telemetry entirely (the engines skip attachment).
	Sink *TelemetrySink
	// Registry, when non-nil, exposes in-flight collectors to the live
	// HTTP endpoint (diam2sweep -http) for the duration of their runs.
	Registry *telemetry.Registry
}

// attach creates and registers a collector for one run when the plan
// is enabled; returns nil otherwise.
func (tp TelemetryPlan) attach(e *sim.Engine, label string) *telemetry.Collector {
	if tp.Sink == nil {
		return nil
	}
	c := telemetry.NewCollector(telemetry.Options{Label: label})
	e.AttachTelemetry(c)
	tp.Registry.Attach(c)
	return c
}

// collect deposits a finished run's collector into the sink.
func (tp TelemetryPlan) collect(c *telemetry.Collector) {
	if c == nil {
		return
	}
	tp.Registry.Detach(c)
	tp.Sink.add(c)
}

// discard detaches an aborted run's collector without depositing it:
// the sink holds bundles of completed points only, so a cancelled
// point must not leave a partial bundle behind.
func (tp TelemetryPlan) discard(c *telemetry.Collector) {
	if c == nil {
		return
	}
	tp.Registry.Detach(c)
}

// TelemetrySink accumulates the per-point telemetry bundles of a sweep.
// Workers deposit concurrently; every reader sees the bundles sorted by
// label, so the exported trace and heatmap do not depend on completion
// order. If a sweep fails or is cancelled the sink holds the bundles of
// the points that completed before the stop.
type TelemetrySink struct {
	mu   sync.Mutex
	cols []*telemetry.Collector
}

func (s *TelemetrySink) add(c *telemetry.Collector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cols = append(s.cols, c)
}

// Collectors returns the deposited collectors sorted by label.
func (s *TelemetrySink) Collectors() []*telemetry.Collector {
	s.mu.Lock()
	out := append([]*telemetry.Collector(nil), s.cols...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// Len returns the number of bundles deposited so far.
func (s *TelemetrySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cols)
}

// Snapshots returns one snapshot per deposited collector, sorted by
// label.
func (s *TelemetrySink) Snapshots() []*telemetry.Snapshot {
	cols := s.Collectors()
	out := make([]*telemetry.Snapshot, len(cols))
	for i, c := range cols {
		out[i] = c.Snapshot()
	}
	return out
}

// WriteTrace writes every point's flight-recorder contents as JSONL,
// points in label order, events oldest-first within a point. Each line
// carries the point's label.
func (s *TelemetrySink) WriteTrace(w io.Writer) error {
	for _, c := range s.Collectors() {
		if err := c.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// Heatmap aggregates all points' per-link counters into one congestion
// heatmap, hottest link first.
func (s *TelemetrySink) Heatmap() []telemetry.LinkSnap {
	return telemetry.MergeLinks(s.Snapshots())
}

// WriteHeatmapCSV writes the aggregated heatmap as CSV.
func (s *TelemetrySink) WriteHeatmapCSV(w io.Writer) error {
	return telemetry.WriteHeatmapCSV(w, s.Heatmap())
}

// Totals sums the headline counters over all deposited bundles —
// the numbers that must reconcile with the sweep's Results totals.
type Totals struct {
	Points         int
	Injected       int64 // injection events (retransmissions re-count)
	Delivered      int64
	Dropped        int64
	FlitsDelivered int64
	LinkFlits      int64
}

// Totals computes the sink's aggregate counters.
func (s *TelemetrySink) Totals() Totals {
	var t Totals
	for _, snap := range s.Snapshots() {
		t.Points++
		t.Injected += snap.Injected
		t.Delivered += snap.Delivered
		t.Dropped += snap.Dropped
		t.FlitsDelivered += snap.FlitsDelivered
		t.LinkFlits += snap.LinkFlits
	}
	return t
}
