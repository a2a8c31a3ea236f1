package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// TestRingBounded: the flight recorder keeps exactly the most recent
// capacity events, oldest first.
func TestRingBounded(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.push(Event{Cycle: int64(i)})
	}
	got := r.slice()
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := int64(6 + i); ev.Cycle != want {
			t.Errorf("slot %d holds cycle %d, want %d", i, ev.Cycle, want)
		}
	}
}

// TestRingPartial: a ring that never wrapped returns what it holds.
func TestRingPartial(t *testing.T) {
	r := newRing(8)
	r.push(Event{Cycle: 1})
	r.push(Event{Cycle: 2})
	got := r.slice()
	if len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 2 {
		t.Errorf("partial ring = %+v", got)
	}
	empty := newRing(0) // clamps to capacity 1
	empty.push(Event{Cycle: 5})
	empty.push(Event{Cycle: 6})
	if got := empty.slice(); len(got) != 1 || got[0].Cycle != 6 {
		t.Errorf("capacity-1 ring = %+v", got)
	}
}

// fill records a small deterministic run's worth of events.
func fill(c *Collector) {
	c.Shape(3, 2)
	c.Start(0)
	c.Inject(10, 1, 0, 2, 0, 0, 4)
	c.Route(12, 1, 0, 2, 0, 1, 0, 1, true)
	c.LinkTraverse(0, 1, 1, 4)
	c.VCEnqueue(1, 1)
	c.VCDequeue(1, 1)
	c.LinkTraverse(1, 2, 1, 4)
	c.Deliver(30, 1, 0, 2, 20, true, 2, 4)
	c.Finish(40)
}

// TestSnapshotDeterminism: identical event sequences produce
// byte-identical traces and identical snapshots.
func TestSnapshotDeterminism(t *testing.T) {
	render := func() (string, *Snapshot) {
		c := NewCollector(Options{Label: "det"})
		fill(c)
		var sb strings.Builder
		if err := c.WriteJSONL(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String(), c.Snapshot()
	}
	trace1, snap1 := render()
	trace2, snap2 := render()
	if trace1 != trace2 {
		t.Errorf("traces differ:\n%s\n---\n%s", trace1, trace2)
	}
	if fmt.Sprintf("%+v", snap1) != fmt.Sprintf("%+v", snap2) {
		t.Errorf("snapshots differ")
	}
	if snap1.Injected != 1 || snap1.Delivered != 1 || snap1.LinkFlits != 8 || snap1.HopsDelivered != 2 {
		t.Errorf("snapshot counters wrong: %+v", snap1)
	}
	if snap1.Cycles != 40 || !snap1.Finished {
		t.Errorf("window = %d finished = %v", snap1.Cycles, snap1.Finished)
	}
	// The vc-switch event was recorded alongside the route decision.
	if snap1.Events["vc-switch"] != 1 || snap1.Events["route"] != 1 {
		t.Errorf("events = %v", snap1.Events)
	}
	if snap1.LatencyMinimal.N != 1 || snap1.LatencyIndirect.N != 0 {
		t.Errorf("latency split wrong: min %d ind %d", snap1.LatencyMinimal.N, snap1.LatencyIndirect.N)
	}
}

// TestSnapshotRunningWindow: before Finish, a snapshot's window ends at
// the latest event recorded so far, so a running collector reports the
// cycles it has observed and nonzero link loads; Finish then fixes the
// window at the final cycle.
func TestSnapshotRunningWindow(t *testing.T) {
	c := NewCollector(Options{})
	c.Shape(3, 2)
	c.Start(100)
	c.Inject(110, 1, 0, 2, 0, 0, 4)
	c.LinkTraverse(0, 1, 0, 4)
	c.Route(120, 1, 0, 2, 1, 1, 0, 0, true)
	c.LinkTraverse(1, 2, 0, 4)
	c.Deliver(115, 2, 1, 0, 5, true, 1, 4) // out of order: the window keeps its end
	if s := c.Snapshot(); s.Cycles != 20 || s.Finished || len(s.Links) != 2 || s.Links[0].Load != 0.2 {
		t.Errorf("running snapshot: cycles %d finished %v links %+v, want 20 cycles and load 0.2", s.Cycles, s.Finished, s.Links)
	}
	c.Finish(140)
	if s := c.Snapshot(); s.Cycles != 40 || !s.Finished || s.Links[0].Load != 0.1 {
		t.Errorf("finished snapshot: cycles %d finished %v links %+v, want 40 cycles and load 0.1", s.Cycles, s.Finished, s.Links)
	}
}

// TestRestitution: LinkRestitute cancels a traversal exactly.
func TestRestitution(t *testing.T) {
	c := NewCollector(Options{})
	c.Shape(2, 2)
	c.Start(0)
	c.LinkTraverse(0, 1, 0, 4)
	c.LinkTraverse(0, 1, 1, 4)
	c.LinkRestitute(0, 1, 1, 4)
	c.Finish(100)
	s := c.Snapshot()
	if s.LinkFlits != 4 {
		t.Errorf("LinkFlits = %d, want 4", s.LinkFlits)
	}
	if len(s.Links) != 1 || s.Links[0].Flits != 4 || s.Links[0].PerVC[1] != 0 || s.Links[0].PerVC[0] != 4 {
		t.Errorf("link snap = %+v", s.Links)
	}
}

// TestMergeLinks: heatmaps of multiple snapshots aggregate per link
// with loads renormalized over the summed windows.
func TestMergeLinks(t *testing.T) {
	mk := func(flits int64) *Snapshot {
		c := NewCollector(Options{})
		c.Shape(2, 1)
		c.Start(0)
		c.LinkTraverse(0, 1, 0, int(flits))
		c.Finish(100)
		return c.Snapshot()
	}
	merged := MergeLinks([]*Snapshot{mk(10), mk(30)})
	if len(merged) != 1 {
		t.Fatalf("merged %d links, want 1", len(merged))
	}
	if merged[0].Flits != 40 {
		t.Errorf("merged flits = %d, want 40", merged[0].Flits)
	}
	if merged[0].Load != 0.2 { // 40 flits over 200 summed cycles
		t.Errorf("merged load = %v, want 0.2", merged[0].Load)
	}
}

// TestHeatmapCSV: the CSV render carries the header, per-VC columns
// and hottest-first ordering.
func TestHeatmapCSV(t *testing.T) {
	c := NewCollector(Options{})
	c.Shape(3, 2)
	c.Start(0)
	c.LinkTraverse(0, 1, 0, 4)
	c.LinkTraverse(1, 2, 0, 4)
	c.LinkTraverse(1, 2, 1, 4)
	c.Finish(10)
	var sb strings.Builder
	if err := WriteHeatmapCSV(&sb, c.Snapshot().Links); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv = %q", sb.String())
	}
	if lines[0] != "from,to,flits,load,vc0,vc1" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,2,8,") || !strings.HasPrefix(lines[2], "0,1,4,") {
		t.Errorf("rows not hottest-first:\n%s", sb.String())
	}
}
