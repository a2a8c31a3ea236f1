package sim

import (
	"fmt"
	"math/rand"

	"diam2/internal/metrics"
	"diam2/internal/telemetry"
)

// EngineSchema is the semantic version of the simulator: it changes
// whenever a code change alters simulation *output* for a fixed
// configuration and seed (routing decisions, arbitration order, credit
// timing, fault handling, rng draw order). The experiment store folds
// it into every content address, so results produced under older
// semantics are never reused — they simply stop matching and are
// recomputed (and reclaimable via diam2store gc). Bump it in the same
// commit that updates the golden digests in testdata.
const EngineSchema = 1

// RoutingAlgorithm chooses ports and virtual channels. Implementations
// live in the routing package; the engine calls Inject once per packet
// at its source router and NextHop at every router on the path (the
// engine ejects packets that have reached their destination router
// itself, without consulting the algorithm).
type RoutingAlgorithm interface {
	Name() string
	// NumVCs returns the number of virtual channels the algorithm's
	// deadlock-avoidance scheme requires.
	NumVCs() int
	// Inject decides the packet's route (minimal vs indirect,
	// intermediate router) using the source router's state, and
	// returns the VC for the node-to-router link.
	Inject(p *Packet, r *Router, rng *rand.Rand) int
	// NextHop returns the output port and the VC to use on the
	// outgoing link at router r. It may update the packet's routing
	// state (e.g. mark the intermediate as reached).
	NextHop(p *Packet, r *Router, rng *rand.Rand) (port, vc int)
}

// DeliveryObserver is an optional interface a Workload may implement
// to learn of packet deliveries — the hook dependency-driven
// workloads (collective operations) use to gate later communication
// steps on earlier ones having arrived.
type DeliveryObserver interface {
	OnDeliver(p *Packet, now int64)
}

// Workload drives injection. The engine polls NextPacket once per
// cycle per node while that node's source queue has room.
type Workload interface {
	Name() string
	// NextPacket returns the destination for a new packet from node
	// src at cycle now, or ok == false to inject nothing this cycle.
	NextPacket(src int, now int64, rng *rand.Rand) (dst int, ok bool)
	// Done reports that the workload will never inject again
	// (closed-loop exchanges); open-loop generators return false.
	//
	// Contract: once Done returns true, NextPacket must return
	// ok == false without drawing from rng or mutating workload state.
	// The engine relies on this to skip polling idle nodes entirely
	// during the drain phase (see injectStage).
	Done() bool
}

// Deferred effects travel through three typed delay rings instead of a
// single ring of tagged event structs. Credit returns and output-buffer
// releases always move exactly one packet's worth of flits, so each is
// a packed reference applied with integer adds on one flat array in a
// batched fixed-order pass, and deliveries are bare slab handles. The
// rings hold no pointers, so the GC never scans them.
//
// A credit reference is the index of the counter — a router's
// credits[idx(port, vc)] or a node's per-VC credit — in Network.mem.w32.
// A release reference (releaseRef) packs two such indices.
//
// ringSlot holds the deferred effects landing on one future cycle.
type ringSlot struct {
	credits  []uint32    // router/node credit returns
	releases []uint64    // output-buffer occupancy releases
	delivers []pktHandle // packet tails reaching their destination node
}

// releaseRef addresses the two counters an output-buffer release
// lowers: the port's occSum in the high half, the (port, vc) outOcc —
// ci is idx(port, vc) — in the low half.
func releaseRef(r *Router, port, ci int) uint64 {
	return uint64(r.occSumAt+uint32(port))<<32 | uint64(r.outOccAt+uint32(ci))
}

// Engine is the cycle-driven simulator.
type Engine struct {
	Net  *Network
	Alg  RoutingAlgorithm
	Work Workload
	Cfg  Config

	Warmup int64 // cycle at which measurement starts

	// Shard identity (see parallel.go). A serial engine is shard 0 of a
	// one-shard world: acts is Network.acts[0], nodes covers every
	// node, and par is nil — every parallel branch below reduces to its
	// serial form. A ParallelEngine builds one Engine per partition
	// with acts/nodes restricted to the owned components and par set,
	// which routes cross-partition packets and credit returns through
	// the per-shard-pair mailboxes instead of touching state another
	// shard owns.
	shard   int
	acts    *actSet
	nodes   []int32 // owned nodes, ascending
	par     *ParallelEngine
	outPkt  [][]pktMsg  // [destination shard] cross-partition packet handoffs
	outCred [][]credMsg // [destination shard] cross-partition credit returns

	now     int64
	rng     *rand.Rand
	ring    []ringSlot
	ringLen int64
	slot    int64 // == now % ringLen, maintained incrementally

	// slab holds every live Packet of this engine (shard-private in a
	// sharded run; see packet.go and DESIGN.md §15). The steady-state
	// hot path allocates nothing once the arena is warm.
	slab pktSlab

	pktFlits int
	nextID   int64

	// Counters.
	generated int64
	injected  int64
	delivered int64

	deliveredFlitsWindow int64 // delivered during the measurement window
	injectedFlitsWindow  int64

	latGen    *metrics.Histogram // generation -> delivery, cycles
	latNet    *metrics.Histogram // injection -> delivery, cycles
	hops      metrics.Mean
	indirectN int64 // packets routed non-minimally

	lastDeliver int64 // cycle of the most recent delivery

	observer DeliveryObserver     // optional delivery hook of the workload
	tel      *telemetry.Collector // the engine's one optional observer (see telemetry.go)

	// Fault injection (nil / zero without a schedule; see fault.go).
	faults        *faultState
	reroute       RerouteAware
	droppedPkts   int64 // packets removed from the network by link failures
	retransmits   int64 // re-injections of dropped packets
	retxWaiting   int64 // drops not yet re-injected
	linkDowns     int64
	linkUps       int64
	faultsSkipped int64
	rebuilds      int64
	recoveryMax   int64 // max drop -> redelivery time observed
}

// NewEngine wires a network, routing algorithm and workload together.
// cfg.NumVCs must cover alg.NumVCs().
func NewEngine(net *Network, alg RoutingAlgorithm, work Workload) (*Engine, error) {
	cfg := net.Cfg
	if alg.NumVCs() > cfg.NumVCs {
		return nil, fmt.Errorf("sim: algorithm %s needs %d VCs, config has %d", alg.Name(), alg.NumVCs(), cfg.NumVCs)
	}
	e := &Engine{
		Net:      net,
		Alg:      alg,
		Work:     work,
		Cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		pktFlits: cfg.PacketFlits(),
		acts:     net.acts[0],
		nodes:    make([]int32, len(net.nodes)),
	}
	for i := range e.nodes {
		e.nodes[i] = int32(i)
	}
	e.ringLen = int64(cfg.PacketFlits() + cfg.LinkLatency + cfg.SwitchLatency + 2)
	e.ring = make([]ringSlot, e.ringLen)
	e.observer, _ = work.(DeliveryObserver)
	// Latency histograms in cycles: bucket width scales with the
	// network latency so percentiles stay meaningful at any scale.
	w := float64(cfg.SwitchLatency + cfg.LinkLatency)
	e.latGen = metrics.NewHistogram(w, 4096)
	e.latNet = metrics.NewHistogram(w, 4096)
	return e, nil
}

// Now returns the current cycle.
func (e *Engine) Now() int64 { return e.now }

// slotAt maps a scheduling delay onto the ring. e.slot caches
// now % ringLen, and every delay the stages use fits within one ring
// revolution, so a conditional subtract replaces the int64 division
// that showed up hot in profiles. The modulo fallback keeps larger
// delays correct should one ever appear.
func (e *Engine) slotAt(delay int64) int64 {
	t := e.slot + delay
	if t >= e.ringLen {
		t -= e.ringLen
		if t >= e.ringLen {
			t %= e.ringLen
		}
	}
	return t
}

func (e *Engine) scheduleCredit(delay int64, ref uint32) {
	s := &e.ring[e.slotAt(delay)]
	s.credits = append(s.credits, ref)
}

func (e *Engine) scheduleRelease(delay int64, ref uint64) {
	s := &e.ring[e.slotAt(delay)]
	s.releases = append(s.releases, ref)
}

func (e *Engine) scheduleDeliver(delay int64, h pktHandle) {
	s := &e.ring[e.slotAt(delay)]
	s.delivers = append(s.delivers, h)
}

// Step advances the simulation by one cycle.
func (e *Engine) Step() {
	if e.faults != nil {
		e.faultTick()
	}
	e.processEvents()
	e.linkStage()
	e.switchStage()
	e.injectStage()
	e.advanceCycle()
}

// advanceCycle moves the clock to the next cycle, wrapping the cached
// ring slot.
func (e *Engine) advanceCycle() {
	e.now++
	if e.slot++; e.slot == e.ringLen {
		e.slot = 0
	}
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n int64) {
	for i := int64(0); i < n; i++ {
		e.Step()
	}
}

// RunUntilDrained steps until the workload is done and every injected
// packet has been delivered (including retransmissions of packets lost
// to link failures), or maxCycles elapse. It returns true if the
// network drained.
func (e *Engine) RunUntilDrained(maxCycles int64) bool {
	for e.now < maxCycles {
		if e.drained() {
			return true
		}
		e.Step()
	}
	return e.drained()
}

// drained reports that no packet remains anywhere: the workload is
// exhausted, the source and retransmission queues are empty, and every
// packet still in the network (injections minus deliveries minus
// drops) has been accounted for. O(1): Network.srcBusy counts nodes
// with nonempty source queues, so RunUntilDrained no longer scans all
// nodes every iteration.
func (e *Engine) drained() bool {
	return e.Work.Done() && e.injected-e.delivered-e.droppedPkts == 0 &&
		e.retxWaiting == 0 && e.Net.srcBusyTotal() == 0
}

// workDone reports whether the workload has been exhausted, as seen at
// the injection stage. Serial engines ask the workload directly; shard
// engines read the value their ParallelEngine latched at the
// post-events barrier — between that barrier and the inject stage no
// shard calls NextPacket, so the latched value equals what a serial
// engine would observe here.
func (e *Engine) workDone() bool {
	if e.par != nil {
		return e.par.doneLatch
	}
	return e.Work.Done()
}

// processEvents applies the deferred effects that land this cycle:
// first the batched credit returns, then the output-buffer releases,
// then the deliveries. Credits and releases are commutative integer
// adds that nothing else in this pass reads, so applying each kind in
// one fixed-order sweep is behaviour-identical to the old interleaved
// event list; deliveries keep their insertion order, which is the
// order the old list processed them in, so every stat and observer
// callback fires in the same sequence.
func (e *Engine) processEvents() {
	s := &e.ring[e.slot]
	flits := int32(e.pktFlits)
	w32 := e.Net.mem.w32
	for _, ref := range s.credits {
		w32[ref] += flits
	}
	s.credits = s.credits[:0]
	for _, ref := range s.releases {
		w32[uint32(ref)] -= flits
		w32[ref>>32] -= flits
	}
	s.releases = s.releases[:0]
	if len(s.delivers) > 0 {
		for _, h := range s.delivers {
			e.deliver(h)
		}
		s.delivers = s.delivers[:0]
	}
}

// Stalled reports whether packets are in flight but none has been
// delivered for at least window cycles — the signature of a routing
// deadlock (e.g. indirect routing on too few VCs) or a disconnected
// route. Healthy saturated networks keep delivering.
func (e *Engine) Stalled(window int64) bool {
	return e.injected > e.delivered && e.now-e.lastDeliver > window
}

func (e *Engine) deliver(h pktHandle) {
	p := e.pkt(h)
	e.delivered++
	e.lastDeliver = e.now
	if e.now >= e.Warmup {
		e.deliveredFlitsWindow += int64(e.pktFlits)
	}
	if p.Retx > 0 && e.now-p.FirstDrop > e.recoveryMax {
		e.recoveryMax = e.now - p.FirstDrop
	}
	if e.observer != nil {
		e.observer.OnDeliver(p, e.now)
	}
	if e.tel != nil {
		e.tel.Deliver(e.now, p.ID, int(p.Src), int(p.Dst), float64(e.now-p.GenTime), p.Minimal, int(p.Hops), e.pktFlits)
	}
	if p.GenTime >= e.Warmup {
		e.latGen.Add(float64(e.now - p.GenTime))
		e.latNet.Add(float64(e.now - p.InjectTime))
		e.hops.Add(float64(p.Hops))
		if !p.Minimal {
			e.indirectN++
		}
	}
	// The packet has left the simulation and every hook above has run;
	// recycle the slot (slab ownership rules: DESIGN.md §15).
	e.slab.release(h)
}

// linkStage moves packets from output buffers onto links: downstream
// input buffers for network ports, destination nodes for terminal
// ports. Only routers in the output active set are visited, and within
// them only ports whose wake cycle has come (Router.outWake); both
// iterations run in ascending order, matching a full scan's visit order
// over the components that can act. The VC walk rotates from the
// round-robin pointer with a conditional subtract — same visit order as
// (rr+i) % nv, no division.
func (e *Engine) linkStage() {
	flits := int64(e.pktFlits)
	linkLat := int64(e.Cfg.LinkLatency)
	nv := e.Cfg.NumVCs
	// Hoisted off the Engine: the compiler cannot prove stores through
	// *Router don't alias these fields, so leaving them as e.x reloads
	// them on every iteration of the hot loops below.
	now := e.now
	pf := int32(e.pktFlits)
	act := e.acts.out
	for id := act.nextFrom(0); id >= 0; id = act.nextFrom(id + 1) {
		r := e.Net.Routers[id]
		for port, wake := range r.outWake {
			if wake > now {
				continue
			}
			if free := r.linkFree[port]; free > now {
				r.outWake[port] = free
				continue
			}
			if r.portDown != nil && port < r.netPorts && r.portDown[port] {
				continue // downed links stop transmitting (and keep polling)
			}
			// again collects the earliest cycle a later visit could send.
			again := neverReady
			start := int(r.rrOut[port])
			for i := 0; i < nv; i++ {
				vc := start + i
				if vc >= nv {
					vc -= nv
				}
				ci := r.idx(port, vc)
				if ready := r.outQ[ci].head.ready; ready > now {
					again = min(again, ready) // empty, or not yet through the switch
					continue
				}
				if !r.isTerminal(port) {
					// Virtual cut-through: need room downstream for the
					// whole packet. Credits return unannounced: poll.
					if r.credits[ci] < pf {
						again = now + 1
						continue
					}
					r.credits[ci] -= pf
					ent := r.dequeueOut(port, vc)
					next := e.Net.Routers[r.neighbor[port]]
					if next.part == e.shard {
						next.enqueueIn(int(r.revPort[port]), vc, entry{h: ent.h, ready: now + linkLat, outPort: unrouted})
					} else {
						// Cross-partition hop: the packet leaves this
						// shard's world entirely, so it travels by value —
						// the owning shard re-homes it in its own slab at
						// the inter-cycle exchange (handles never cross
						// shards; DESIGN.md §15). Deferral is safe because
						// the entry's ready time (now+linkLat >= now+1)
						// keeps it untouched this cycle even under serial
						// semantics.
						e.outPkt[next.part] = append(e.outPkt[next.part],
							pktMsg{router: next.ID, port: int(r.revPort[port]), vc: vc, ready: now + linkLat, pkt: *e.pkt(ent.h)})
						e.slab.release(ent.h)
					}
					if e.tel != nil {
						e.tel.LinkTraverse(r.ID, next.ID, vc, int(pf))
					}
				} else {
					ent := r.dequeueOut(port, vc)
					e.scheduleDeliver(flits+linkLat, ent.h)
				}
				r.linkFree[port] = now + flits
				again = now + flits
				e.scheduleRelease(flits, releaseRef(r, port, ci))
				if vc++; vc == nv {
					vc = 0
				}
				r.rrOut[port] = int16(vc)
				break
			}
			r.outWake[port] = again
		}
	}
}

// switchStage performs switch allocation: head packets in input
// buffers are routed and, when the crossbar and output buffer allow,
// streamed to the chosen output buffer.
func (e *Engine) switchStage() {
	flits := int64(e.pktFlits)
	// Internal crossbar transfers run Speedup times faster than the
	// links, so a packet occupies its input port and crossbar output
	// for fewer cycles (classic input-output-buffered speedup).
	xfer := (flits + int64(e.Cfg.Speedup) - 1) / int64(e.Cfg.Speedup)
	swLat := int64(e.Cfg.SwitchLatency)
	linkLat := int64(e.Cfg.LinkLatency)
	nv := e.Cfg.NumVCs
	now := e.now
	act := e.acts.in
	for id := act.nextFrom(0); id >= 0; id = act.nextFrom(id + 1) {
		r := e.Net.Routers[id]
		// Rotated iteration over the input ports starting at the
		// round-robin pointer — [rrIn, nPorts) then [0, rrIn) — which
		// is the order a full scan's (rrIn+pi) % nPorts loop visits
		// them in; a port whose wake cycle lies ahead (Router.inWake)
		// could neither route nor grant, so the scan skips it.
		granted := false
		wake := r.inWake
		for port := r.rrIn; port < len(wake); port++ {
			if wake[port] <= now && e.switchAllocPort(r, port, nv, xfer, swLat, linkLat) {
				granted = true
			}
		}
		for port := 0; port < r.rrIn; port++ {
			if wake[port] <= now && e.switchAllocPort(r, port, nv, xfer, swLat, linkLat) {
				granted = true
			}
		}
		if granted {
			if r.rrIn++; r.rrIn == r.nPorts {
				r.rrIn = 0
			}
		}
	}
}

// switchAllocPort tries to grant one packet from input port's VC
// queues to an output buffer; reports whether a grant happened. Either
// way it leaves the port's wake cycle exact: the earliest cycle at which
// a visit could route or grant, given what the port holds now.
func (e *Engine) switchAllocPort(r *Router, port, nv int, xfer, swLat, linkLat int64) bool {
	now := e.now
	if free := r.inPortFree[port]; free > now {
		r.inWake[port] = free
		return false
	}
	again := neverReady
	// Hoisted loads, same rationale as linkStage.
	pf := int32(e.pktFlits)
	obf := int32(e.Cfg.OutputBufFlits)
	win0 := e.Cfg.AllocWindow
	rings := &r.acts.rings
	startVC := int(r.rrVC[port])
	for vi := 0; vi < nv; vi++ {
		vc := startVC + vi
		if vc >= nv {
			vc -= nv
		}
		q := &r.inQ[r.idx(port, vc)]
		// Windowed allocation: scan past a blocked head so a
		// packet bound for a free output is not stuck behind
		// one bound for a busy output (the head-of-line
		// bypass an input-output-buffered switch with VOQs
		// provides; window size bounds the lookahead).
		// Per-flow order is preserved: packets of one flow
		// share an output port and are granted in order.
		pick := -1
		win := win0
		if win > q.len() {
			win = q.len()
		}
		for i := 0; i < win; i++ {
			cand := q.at(rings, i)
			if cand.ready > now {
				again = min(again, cand.ready)
				break // later entries arrived even later
			}
			if cand.outPort < 0 {
				// The hop's one load of the packet.
				p := e.pkt(cand.h)
				if cand.outPort == unrouted && port < r.netPorts {
					p.Hops++
				}
				if int(p.DstRouter) == r.ID {
					cand.outPort = int16(e.Net.terminalPortFor(int(p.Dst)))
					cand.outVC = int16(vc)
				} else {
					op, ov := e.Alg.NextHop(p, r, e.rng)
					cand.outPort, cand.outVC = int16(op), int16(ov)
				}
				r.pendingOut[cand.outPort] += pf
				r.occSum[cand.outPort] += pf
				if e.tel != nil {
					e.tel.Route(now, p.ID, int(p.Src), int(p.Dst), r.ID, int(cand.outPort), vc, int(cand.outVC), p.Minimal)
				}
			}
			if accept := r.outAccept[cand.outPort]; accept > now {
				again = min(again, accept)
				continue
			}
			if r.outOcc[r.idx(int(cand.outPort), int(cand.outVC))]+pf > obf {
				again = now + 1 // buffer releases come unannounced: poll
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			continue
		}
		// Grant: the packet's flits move from the port's pending load to
		// its output buffer, which leaves occSum as it was.
		ent := r.takeIn(port, vc, pick)
		op, ov := int(ent.outPort), int(ent.outVC)
		r.pendingOut[op] -= pf
		r.outOcc[r.idx(op, ov)] += pf
		r.outAccept[op] = now + xfer
		r.inPortFree[port] = now + xfer
		r.inWake[port] = now + xfer
		r.enqueueOut(op, ov, entry{h: ent.h, ready: now + swLat})
		// Return credits upstream once the tail leaves this
		// input buffer (after flits cycles) plus the credit
		// propagation delay. Credit returns are packed refs on
		// the credit ring, applied in a batched pass (see
		// processEvents).
		if r.isTerminal(port) {
			e.scheduleCredit(xfer+linkLat, r.nodeCreditsAt+uint32((port-r.netPorts)*nv+vc))
		} else {
			up := e.Net.Routers[r.neighbor[port]]
			ref := up.creditsAt + uint32(up.idx(int(r.revPort[port]), vc))
			if up.part == e.shard {
				e.scheduleCredit(xfer+linkLat, ref)
			} else {
				// Credit for an upstream router another shard owns:
				// deferred to the inter-cycle exchange. The credit delay
				// xfer+linkLat >= 2 leaves at least one cycle of slack, so
				// scheduling it on the owner next cycle with delay-1
				// lands on the same absolute cycle.
				e.outCred[up.part] = append(e.outCred[up.part], credMsg{delay: xfer + linkLat, ref: ref})
			}
		}
		if vc++; vc == nv {
			vc = 0
		}
		r.rrVC[port] = int16(vc)
		return true
	}
	r.inWake[port] = again
	return false
}

// injectStage generates new packets (bounded by the source queue) and
// pushes queued packets onto terminal links when credits allow.
//
// While the workload can still generate, every node is polled each
// cycle in node order — the rng draw sequence (one NextPacket poll
// per node with source-queue room, one Inject per injection attempt)
// is part of the engine's deterministic behaviour and must not change.
// Once Done() reports the workload exhausted, polling is a guaranteed
// no-op (see the Workload contract) and only woken nodes — those
// holding source-queue or retransmission work — are visited.
func (e *Engine) injectStage() {
	if e.workDone() {
		act := e.acts.node
		for id := act.nextFrom(0); id >= 0; id = act.nextFrom(id + 1) {
			e.tryInject(id)
		}
		return
	}
	net := e.Net
	srcCap := int32(e.Cfg.SourceQueueCap)
	for _, id32 := range e.nodes {
		id := int(id32)
		loc := &net.nodes[id]
		if net.mem.q[loc.srcQ].n < srcCap {
			if dst, ok := e.Work.NextPacket(id, e.now, e.rng); ok {
				h := e.slab.alloc()
				p := e.pkt(h)
				p.ID = e.nextID
				p.Src = id32
				p.Dst = int32(dst)
				p.SrcRouter = loc.router
				p.DstRouter = net.nodes[dst].router
				p.Flits = int32(e.pktFlits)
				p.GenTime = e.now
				p.Intermediate = -1
				e.nextID++
				e.generated++
				net.pushSrc(e.acts, id, h)
			}
		}
		e.tryInject(id)
	}
}

// tryInject attempts to start one packet from a node onto its terminal
// link: the oldest ready retransmission if any, else the source-queue
// head.
func (e *Engine) tryInject(node int) {
	net := e.Net
	loc := &net.nodes[node]
	if net.mem.i64[loc.linkFree] > e.now {
		return
	}
	// Retransmissions of dropped packets take priority over fresh
	// traffic: they are older and gate drain completion.
	retx := -1
	var h pktHandle
	var p *Packet
	if e.faults != nil {
		retx = net.readyRetx(node, e.now)
	}
	if retx >= 0 {
		// The retx queue parks packets by value; route state mutations
		// (here and in Inject below) persist on the parked copy across
		// failed attempts, exactly as they did on the old shared struct.
		p = &net.retxQ[node][retx].pkt
		p.Hops = 0
		p.PhaseTwo = false
		p.Intermediate = -1
	} else {
		srcQ := &net.mem.q[loc.srcQ]
		if srcQ.empty() {
			return
		}
		h = srcQ.head.h
		p = e.pkt(h)
	}
	r := net.Routers[loc.router]
	vc := e.Alg.Inject(p, r, e.rng)
	credits := &net.mem.w32[int(loc.credits)+vc]
	if *credits < int32(e.pktFlits) {
		return
	}
	*credits -= int32(e.pktFlits)
	if retx >= 0 {
		// Re-home the parked copy into this shard's slab before
		// removing it from the queue (DESIGN.md §15).
		h = e.slab.alloc()
		np := e.pkt(h)
		*np = *p
		p = np
		net.takeRetx(node, retx)
		if len(net.retxQ[node]) == 0 && net.mem.q[loc.srcQ].empty() {
			e.acts.node.clear(node)
		}
		e.retxWaiting--
		e.retransmits++
	} else {
		net.popSrc(e.acts, node)
	}
	p.InjectTime = e.now
	e.injected++
	if e.tel != nil {
		if retx >= 0 {
			e.tel.Retransmit(e.now, p.ID, int(p.Src), int(p.Dst), r.ID, vc, e.pktFlits)
		} else {
			e.tel.Inject(e.now, p.ID, int(p.Src), int(p.Dst), r.ID, vc, e.pktFlits)
		}
	}
	if e.now >= e.Warmup {
		e.injectedFlitsWindow += int64(e.pktFlits)
	}
	net.mem.i64[loc.linkFree] = e.now + int64(e.pktFlits)
	r.enqueueIn(net.terminalPortFor(node), vc, entry{h: h, ready: e.now + int64(e.Cfg.LinkLatency), outPort: unrouted})
}
