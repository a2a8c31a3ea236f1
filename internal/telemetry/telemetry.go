// Package telemetry is the simulator's unified observability layer:
// one Collector gathers per-link and per-VC occupancy/utilization
// counters (the congestion heatmap), latency histograms split by
// minimal-vs-nonminimal routing leg, and a bounded flight-recorder
// ring of simulation events (inject/route/vc-switch/drop/retransmit/
// deliver) that exports as JSONL for post-mortem analysis.
//
// The collector is passive: it observes the engine through narrow
// recording hooks and never feeds anything back, so attaching one
// cannot perturb a run — the engine's output with telemetry enabled is
// bit-identical to a run without it (TestGoldenStatsTelemetry pins
// this). When no collector is attached the engine pays a nil check per
// hook and nothing else, keeping the zero-alloc hot path intact.
//
// Every recording method takes the collector's mutex, so a live HTTP
// snapshot (see http.go) can read a collector while a worker writes to
// it. Within one engine the recording order is deterministic (the
// engine is single-threaded), so snapshots taken after a run — and the
// exported event stream — are pure functions of the run's parameters.
package telemetry

import (
	"sync"
)

// EventKind enumerates the flight-recorder event types.
type EventKind uint8

// Flight-recorder event kinds, in rough packet-lifecycle order.
const (
	EvInject     EventKind = iota // packet started onto its terminal link
	EvRoute                       // switch allocation decided an output (port, VC)
	EvVCSwitch                    // the decision moved the packet to a different VC
	EvDrop                        // a link failure removed the packet from the network
	EvRetransmit                  // a dropped packet re-entered at its source
	EvDeliver                     // packet tail reached its destination node
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"inject", "route", "vc-switch", "drop", "retransmit", "deliver",
}

// String returns the JSONL name of the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder record. Fields that do not apply to a
// kind hold -1 (Router/Port/VC) or zero values.
type Event struct {
	Cycle   int64     `json:"cycle"`
	Kind    EventKind `json:"-"`
	KindS   string    `json:"kind"`
	Packet  int64     `json:"packet"`
	Src     int       `json:"src"`
	Dst     int       `json:"dst"`
	Router  int       `json:"router"`
	Port    int       `json:"port"`
	VC      int       `json:"vc"`
	Minimal bool      `json:"minimal"`
	Hops    int       `json:"hops"`
}

// Options configures a Collector.
type Options struct {
	// Label identifies the run in snapshots and traces (e.g. the sweep
	// point key).
	Label string
	// RingEvents bounds the flight recorder; the ring keeps the most
	// recent RingEvents events. <= 0 selects DefaultRingEvents.
	RingEvents int
}

// DefaultRingEvents is the flight recorder's default capacity.
const DefaultRingEvents = 4096

// latBucketCycles × latBuckets bound the latency histograms: 32-cycle
// resolution up to 131 072 cycles.
const (
	latBucketCycles = 32.0
	latBuckets      = 4096
)

// linkKey identifies a directed router-to-router link.
type linkKey struct{ From, To int }

// linkCounter accumulates one directed link's traffic.
type linkCounter struct {
	flits int64
	perVC []int64
}

// vcCounter tracks input-buffer pressure for one (router, VC) pair
// across all of the router's input ports: packets resident now, the
// high-water mark, and cumulative enqueues.
type vcCounter struct {
	cur      int32
	peak     int32
	enqueues int64
}

// Collector gathers one run's telemetry. Create with NewCollector and
// attach to an engine with sim.Engine.AttachTelemetry; all methods are
// safe for concurrent use (one engine writing, any number of snapshot
// readers).
type Collector struct {
	mu    sync.Mutex
	label string

	ring ring

	links map[linkKey]*linkCounter
	nVCs  int
	vcOcc []vcCounter // [router*nVCs + vc]; sized by Shape

	latMinimal  *Histogram // generation -> delivery, minimal routes
	latIndirect *Histogram // generation -> delivery, indirect routes

	counts         [numEventKinds]int64
	flitsInjected  int64
	flitsDelivered int64
	linkFlits      int64 // total flits that completed a router-to-router traversal
	hopsDelivered  int64 // sum of Hops over delivered packets

	startCycle int64
	endCycle   int64
	finished   bool
}

// NewCollector creates an empty collector.
func NewCollector(opts Options) *Collector {
	ringCap := opts.RingEvents
	if ringCap <= 0 {
		ringCap = DefaultRingEvents
	}
	return &Collector{
		label:       opts.Label,
		ring:        newRing(ringCap),
		links:       make(map[linkKey]*linkCounter),
		latMinimal:  NewHistogram(latBucketCycles, latBuckets),
		latIndirect: NewHistogram(latBucketCycles, latBuckets),
	}
}

// Label returns the collector's label.
func (c *Collector) Label() string { return c.label }

// Shape sizes the per-(router, VC) occupancy table. The engine calls
// it at attach time; calling it again with the same shape is a no-op.
func (c *Collector) Shape(routers, numVCs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.vcOcc) != routers*numVCs {
		c.vcOcc = make([]vcCounter, routers*numVCs)
	}
	c.nVCs = numVCs
}

// Start records the cycle observation began.
func (c *Collector) Start(cycle int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startCycle = cycle
	c.endCycle = cycle
}

// Finish records the final cycle; the engine calls it from Finish.
func (c *Collector) Finish(cycle int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endCycle = cycle
	c.finished = true
}

// event appends to the ring, bumps the kind counter and, until Finish,
// extends the observed window to the event's cycle. Callers hold mu.
func (c *Collector) event(ev Event) {
	if !c.finished {
		c.endCycle = max(c.endCycle, ev.Cycle)
	}
	ev.KindS = ev.Kind.String()
	c.counts[ev.Kind]++
	c.ring.push(ev)
}

// Inject records a fresh packet starting onto its terminal link.
func (c *Collector) Inject(cycle, packet int64, src, dst, router, vc, flits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flitsInjected += int64(flits)
	c.event(Event{Cycle: cycle, Kind: EvInject, Packet: packet, Src: src, Dst: dst, Router: router, Port: -1, VC: vc})
}

// Retransmit records a dropped packet re-entering at its source.
func (c *Collector) Retransmit(cycle, packet int64, src, dst, router, vc, flits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flitsInjected += int64(flits)
	c.event(Event{Cycle: cycle, Kind: EvRetransmit, Packet: packet, Src: src, Dst: dst, Router: router, Port: -1, VC: vc})
}

// Route records a switch-allocation routing decision at a router; if
// the decision moves the packet to a different VC a vc-switch event is
// recorded as well.
func (c *Collector) Route(cycle, packet int64, src, dst, router, port, fromVC, toVC int, minimal bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.event(Event{Cycle: cycle, Kind: EvRoute, Packet: packet, Src: src, Dst: dst, Router: router, Port: port, VC: toVC, Minimal: minimal})
	if fromVC != toVC {
		c.event(Event{Cycle: cycle, Kind: EvVCSwitch, Packet: packet, Src: src, Dst: dst, Router: router, Port: port, VC: toVC, Minimal: minimal})
	}
}

// Drop records a packet removed from the network by a link failure at
// the given router/port.
func (c *Collector) Drop(cycle, packet int64, src, dst, router, port, vc int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.event(Event{Cycle: cycle, Kind: EvDrop, Packet: packet, Src: src, Dst: dst, Router: router, Port: port, VC: vc})
}

// Deliver records a packet's arrival with its end-to-end latency
// (generation to delivery, cycles) and route shape.
func (c *Collector) Deliver(cycle, packet int64, src, dst int, latency float64, minimal bool, hops, flits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flitsDelivered += int64(flits)
	c.hopsDelivered += int64(hops)
	if minimal {
		c.latMinimal.Add(latency)
	} else {
		c.latIndirect.Add(latency)
	}
	c.event(Event{Cycle: cycle, Kind: EvDeliver, Packet: packet, Src: src, Dst: dst, Router: -1, Port: -1, VC: -1, Minimal: minimal, Hops: hops})
}

// LinkTraverse credits flits to a directed router-to-router link on the
// VC they ride.
func (c *Collector) LinkTraverse(from, to, vc, flits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.linkCounter(from, to).add(vc, int64(flits))
	c.linkFlits += int64(flits)
}

// LinkRestitute reverses a LinkTraverse credit: the flits were dropped
// in flight by a link failure and never arrived, so they do not count
// as carried traffic (mirrors the engine's credit-restitution path).
func (c *Collector) LinkRestitute(from, to, vc, flits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.linkCounter(from, to).add(vc, -int64(flits))
	c.linkFlits -= int64(flits)
}

// linkCounter returns (creating if needed) the counter for a directed
// link. Callers hold mu.
func (c *Collector) linkCounter(from, to int) *linkCounter {
	k := linkKey{from, to}
	lc := c.links[k]
	if lc == nil {
		lc = &linkCounter{perVC: make([]int64, c.nVCs)}
		c.links[k] = lc
	}
	return lc
}

func (lc *linkCounter) add(vc int, flits int64) {
	lc.flits += flits
	if vc >= 0 && vc < len(lc.perVC) {
		lc.perVC[vc] += flits
	}
}

// VCEnqueue records a packet entering a router's input buffers on a VC.
func (c *Collector) VCEnqueue(router, vc int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := router*c.nVCs + vc
	if i < 0 || i >= len(c.vcOcc) {
		return
	}
	o := &c.vcOcc[i]
	o.cur++
	o.enqueues++
	if o.cur > o.peak {
		o.peak = o.cur
	}
}

// VCDequeue records a packet leaving a router's input buffers on a VC.
func (c *Collector) VCDequeue(router, vc int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := router*c.nVCs + vc
	if i < 0 || i >= len(c.vcOcc) {
		return
	}
	c.vcOcc[i].cur--
}

// Events returns a copy of the flight-recorder ring, oldest first.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.slice()
}
