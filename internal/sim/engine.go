package sim

import (
	"math/rand"

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

// Engine is the cycle-driven simulator: the router set cut into one or
// more shards, advanced in epochs by one or more workers (parallel.go
// holds the driver). NewEngine builds the one-shard, one-worker case —
// no cut, no goroutine, nothing to release; NewParallelEngine the
// general one, whose workers Stop releases. Not safe for concurrent use.
type Engine struct {
	Net  *Network
	Alg  RoutingAlgorithm
	Work Workload
	Cfg  Config

	Warmup int64 // cycle at which measurement starts (handed to the shards at each launch)

	shards []*shard
	owned  [][]*shard // worker -> the shards it advances

	bar     barrier
	quit    bool
	stopped bool

	// Command state for the current launch, written by the caller before
	// the start barrier and by barrier actions.
	until        int64 // Run: stop when now reaches this cycle
	checkDrained bool  // RunUntilDrained mode
	maxCycles    int64
	stopFlag     bool
	drainedFlag  bool

	// Epoch state, written by the boundary action alone (parallel.go).
	epoch      int64 // cycles every shard runs before the next barrier
	par        int   // mailbox parity the running epoch's producers write
	boundaries int64 // boundary actions run, the stopping ones included

	tel *telemetry.Collector // the engine's one optional observer (see telemetry.go)
}

// shard is one partition's share of the simulation: the routers and
// nodes it owns (acts, nodes — all of them when the engine has one
// shard), its rng stream, packet-ID range, event rings, packet slab and
// counters. The stage functions below touch only state their shard
// owns; a packet or credit bound for a router another shard owns goes
// into the per-shard-pair mailboxes (outPkt, outCred), which the driver
// applies between epochs.
type shard struct {
	eng  *Engine
	net  *Network
	alg  RoutingAlgorithm
	work Workload
	cfg  Config

	warmup int64

	id      int
	acts    *actSet
	nodes   []int32        // owned nodes, ascending
	outPkt  [2][][]pktMsg  // [epoch parity][destination shard] cross-partition packet handoffs
	outCred [2][][]credMsg // [epoch parity][destination shard] cross-partition credit returns

	now     int64
	rng     *rand.Rand
	ring    []ringSlot
	ringLen int64
	slot    int64 // == now % ringLen, maintained incrementally

	// slab holds every live Packet of this shard (see packet.go and
	// DESIGN.md §15). The steady-state hot path allocates nothing once
	// the arena is warm.
	slab pktSlab

	pktFlits int
	nextID   int64

	// Counters.
	generated int64
	injected  int64
	delivered int64

	deliveredFlitsWindow int64 // delivered during the measurement window
	injectedFlitsWindow  int64

	latGen    *telemetry.Histogram // generation -> delivery, cycles
	latNet    telemetry.Mean       // injection -> delivery, cycles
	hops      telemetry.Mean
	indirectN int64 // packets routed non-minimally

	lastDeliver int64 // cycle of the most recent delivery

	tel *telemetry.Collector // per-event hooks (one shard only; see telemetry.go)

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

// NewEngine wires a network, routing algorithm and workload together
// as one shard advanced by the calling goroutine. cfg.NumVCs must cover
// alg.NumVCs().
func NewEngine(net *Network, alg RoutingAlgorithm, work Workload) (*Engine, error) {
	return NewParallelEngine(net, alg, work, ParallelOptions{Partitions: 1, Workers: 1})
}

// newShard builds shard id of the shards an engine is cut into.
func newShard(eng *Engine, id, shards int) *shard {
	cfg := eng.Cfg
	sh := &shard{
		eng:      eng,
		net:      eng.Net,
		alg:      eng.Alg,
		work:     eng.Work,
		cfg:      cfg,
		id:       id,
		acts:     eng.Net.acts[id],
		nodes:    make([]int32, 0, len(eng.Net.nodes)/shards),
		rng:      rand.New(rand.NewSource(shardSeed(cfg.Seed, id, shards))),
		pktFlits: cfg.PacketFlits(),
		nextID:   int64(id) << 44, // disjoint packet-ID ranges per shard
	}
	for par := range sh.outPkt {
		sh.outPkt[par] = make([][]pktMsg, shards)
		sh.outCred[par] = make([][]credMsg, shards)
	}
	sh.ringLen = int64(cfg.PacketFlits() + cfg.LinkLatency + cfg.SwitchLatency + 2)
	sh.ring = make([]ringSlot, sh.ringLen)
	// Latency histogram in cycles: bucket width scales with the
	// network latency so percentiles stay meaningful at any scale.
	sh.latGen = telemetry.NewHistogram(float64(cfg.SwitchLatency+cfg.LinkLatency), 4096)
	return sh
}

// Now returns the current cycle.
func (e *Engine) Now() int64 { return e.shards[0].now }

// Step advances the simulation by one cycle.
func (e *Engine) Step() { e.Run(1) }

// Run advances the simulation by n cycles.
func (e *Engine) Run(n int64) {
	e.launch(e.Now()+n, false, 0)
}

// RunUntilDrained steps until the workload is done and every injected
// packet has been delivered (including retransmissions of packets lost
// to link failures), or maxCycles elapse. It returns true if the
// network drained.
func (e *Engine) RunUntilDrained(maxCycles int64) bool {
	e.launch(0, true, maxCycles)
	return e.drainedFlag
}

// inFlight counts the packets still in the network: injections minus
// deliveries minus drops. A shard's own difference can be transiently
// negative (a packet injected on one shard, delivered or dropped on
// another); the sum obeys the conservation law.
func (e *Engine) inFlight() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.injected - sh.delivered - sh.droppedPkts
	}
	return n
}

// drained reports that no packet remains anywhere: the workload is
// exhausted, the source and retransmission queues are empty, and every
// packet still in the network has been accounted for. Cheap enough for
// every cycle: Network.srcBusy counts nodes with nonempty source queues,
// so nothing scans the nodes.
func (e *Engine) drained() bool {
	if !e.Work.Done() || e.inFlight() != 0 {
		return false
	}
	var retx int64 // a sum for the same reason: dropped on shard 0, re-injected by the source's shard
	for _, sh := range e.shards {
		retx += sh.retxWaiting
	}
	return retx == 0 && e.Net.srcBusyTotal() == 0
}

// Stalled reports whether packets are in flight but none has been
// delivered for at least window cycles — the signature of a routing
// deadlock (e.g. indirect routing on too few VCs) or a disconnected
// route. Healthy saturated networks keep delivering.
func (e *Engine) Stalled(window int64) bool {
	last := int64(0)
	for _, sh := range e.shards {
		last = max(last, sh.lastDeliver)
	}
	return e.inFlight() > 0 && e.Now()-last > window
}

// slotAt maps a scheduling delay onto the ring. sh.slot caches
// now % ringLen, and every delay the stages use fits within one ring
// revolution, so a conditional subtract replaces the int64 division
// that showed up hot in profiles. The modulo fallback keeps larger
// delays correct should one ever appear.
func (sh *shard) slotAt(delay int64) int64 {
	t := sh.slot + delay
	if t >= sh.ringLen {
		t -= sh.ringLen
		if t >= sh.ringLen {
			t %= sh.ringLen
		}
	}
	return t
}

func (sh *shard) scheduleCredit(delay int64, ref uint32) {
	s := &sh.ring[sh.slotAt(delay)]
	s.credits = append(s.credits, ref)
}

func (sh *shard) scheduleRelease(delay int64, ref uint64) {
	s := &sh.ring[sh.slotAt(delay)]
	s.releases = append(s.releases, ref)
}

func (sh *shard) scheduleDeliver(delay int64, h pktHandle) {
	s := &sh.ring[sh.slotAt(delay)]
	s.delivers = append(s.delivers, h)
}

// advanceCycle moves the clock to the next cycle, wrapping the cached
// ring slot.
func (sh *shard) advanceCycle() {
	sh.now++
	if sh.slot++; sh.slot == sh.ringLen {
		sh.slot = 0
	}
}

// workDone reports whether the workload has been exhausted, asked at
// the injection stage. From two shards up the answer may depend on how
// far other shards have run, and that is harmless: once Done returns
// true, NextPacket is a no-op that draws nothing (the Workload
// contract), so polling every node and visiting the woken ones are the
// same cycle whichever answer a shard gets.
func (sh *shard) workDone() bool { return sh.work.Done() }

// processEvents applies the deferred effects that land this cycle:
// first the batched credit returns, then the output-buffer releases,
// then the deliveries. Credits and releases are commutative integer
// adds that nothing else in this pass reads, so applying each kind in
// one fixed-order sweep is behaviour-identical to the old interleaved
// event list; deliveries keep their insertion order, which is the
// order the old list processed them in, so every stat and observer
// callback fires in the same sequence.
func (sh *shard) processEvents() {
	s := &sh.ring[sh.slot]
	flits := int32(sh.pktFlits)
	w32 := sh.net.mem.w32
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
			sh.deliver(h)
		}
		s.delivers = s.delivers[:0]
	}
}

func (sh *shard) deliver(h pktHandle) {
	p := sh.pkt(h)
	sh.delivered++
	sh.lastDeliver = sh.now
	if sh.now >= sh.warmup {
		sh.deliveredFlitsWindow += int64(sh.pktFlits)
	}
	if p.Retx > 0 && sh.now-p.FirstDrop > sh.recoveryMax {
		sh.recoveryMax = sh.now - p.FirstDrop
	}
	if sh.tel != nil {
		sh.tel.Deliver(sh.now, p.ID, int(p.Src), int(p.Dst), float64(sh.now-p.GenTime), p.Minimal, int(p.Hops), sh.pktFlits)
	}
	if p.GenTime >= sh.warmup {
		sh.latGen.Add(float64(sh.now - p.GenTime))
		sh.latNet.Add(float64(sh.now - p.InjectTime))
		sh.hops.Add(float64(p.Hops))
		if !p.Minimal {
			sh.indirectN++
		}
	}
	// The packet has left the simulation and every hook above has run;
	// recycle the slot (slab ownership rules: DESIGN.md §15).
	sh.slab.release(h)
}

// linkStage moves packets from output buffers onto links: downstream
// input buffers for network ports, destination nodes for terminal
// ports. Only routers in the output active set are visited, and within
// them only ports whose wake cycle has come (Router.outWake); both
// iterations run in ascending order, matching a full scan's visit order
// over the components that can act. The VC walk rotates from the
// round-robin pointer with a conditional subtract — same visit order as
// (rr+i) % nv, no division.
func (sh *shard) linkStage() {
	flits := int64(sh.pktFlits)
	linkLat := int64(sh.cfg.LinkLatency)
	nv := sh.cfg.NumVCs
	// Hoisted off the Engine: the compiler cannot prove stores through
	// *Router don't alias these fields, so leaving them as sh.x reloads
	// them on every iteration of the hot loops below.
	now := sh.now
	pf := int32(sh.pktFlits)
	outPkt := sh.outPkt[sh.eng.par]
	act := sh.acts.out
	for id := act.nextFrom(0); id >= 0; id = act.nextFrom(id + 1) {
		r := sh.net.Routers[id]
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
					next := sh.net.Routers[r.neighbor[port]]
					if next.part == sh.id {
						next.enqueueIn(int(r.revPort[port]), vc, entry{h: ent.h, ready: now + linkLat, outPort: unrouted})
					} else {
						// Cross-partition hop: the packet leaves this
						// shard's world entirely, so it travels by value —
						// the owning shard re-homes it in its own slab at
						// the end of the epoch (handles never cross
						// shards; DESIGN.md §15). Deferral is safe because
						// the entry's ready time (now+linkLat) is not
						// before the epoch's end (parallel.go).
						outPkt[next.part] = append(outPkt[next.part],
							pktMsg{router: next.ID, port: int(r.revPort[port]), vc: vc, ready: now + linkLat, pkt: *sh.pkt(ent.h)})
						sh.slab.release(ent.h)
					}
					if sh.tel != nil {
						sh.tel.LinkTraverse(r.ID, next.ID, vc, int(pf))
					}
				} else {
					ent := r.dequeueOut(port, vc)
					sh.scheduleDeliver(flits+linkLat, ent.h)
				}
				r.linkFree[port] = now + flits
				again = now + flits
				sh.scheduleRelease(flits, releaseRef(r, port, ci))
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
func (sh *shard) switchStage() {
	flits := int64(sh.pktFlits)
	// Internal crossbar transfers run Speedup times faster than the
	// links, so a packet occupies its input port and crossbar output
	// for fewer cycles (classic input-output-buffered speedup).
	xfer := (flits + int64(sh.cfg.Speedup) - 1) / int64(sh.cfg.Speedup)
	swLat := int64(sh.cfg.SwitchLatency)
	linkLat := int64(sh.cfg.LinkLatency)
	nv := sh.cfg.NumVCs
	now := sh.now
	act := sh.acts.in
	for id := act.nextFrom(0); id >= 0; id = act.nextFrom(id + 1) {
		r := sh.net.Routers[id]
		// Rotated iteration over the input ports starting at the
		// round-robin pointer — [rrIn, nPorts) then [0, rrIn) — which
		// is the order a full scan's (rrIn+pi) % nPorts loop visits
		// them in; a port whose wake cycle lies ahead (Router.inWake)
		// could neither route nor grant, so the scan skips it.
		granted := false
		wake := r.inWake
		for port := r.rrIn; port < len(wake); port++ {
			if wake[port] <= now && sh.switchAllocPort(r, port, nv, xfer, swLat, linkLat) {
				granted = true
			}
		}
		for port := 0; port < r.rrIn; port++ {
			if wake[port] <= now && sh.switchAllocPort(r, port, nv, xfer, swLat, linkLat) {
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
func (sh *shard) switchAllocPort(r *Router, port, nv int, xfer, swLat, linkLat int64) bool {
	now := sh.now
	if free := r.inPortFree[port]; free > now {
		r.inWake[port] = free
		return false
	}
	again := neverReady
	// Hoisted loads, same rationale as linkStage.
	pf := int32(sh.pktFlits)
	obf := int32(sh.cfg.OutputBufFlits)
	win0 := sh.cfg.AllocWindow
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
				p := sh.pkt(cand.h)
				if cand.outPort == unrouted && port < r.netPorts {
					p.Hops++
				}
				if int(p.DstRouter) == r.ID {
					cand.outPort = int16(sh.net.terminalPortFor(int(p.Dst)))
					cand.outVC = int16(vc)
				} else {
					op, ov := sh.alg.NextHop(p, r, sh.rng)
					cand.outPort, cand.outVC = int16(op), int16(ov)
				}
				r.pendingOut[cand.outPort] += pf
				r.occSum[cand.outPort] += pf
				if sh.tel != nil {
					sh.tel.Route(now, p.ID, int(p.Src), int(p.Dst), r.ID, int(cand.outPort), vc, int(cand.outVC), p.Minimal)
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
			sh.scheduleCredit(xfer+linkLat, r.nodeCreditsAt+uint32((port-r.netPorts)*nv+vc))
		} else {
			up := sh.net.Routers[r.neighbor[port]]
			ref := up.creditsAt + uint32(up.idx(int(r.revPort[port]), vc))
			if up.part == sh.id {
				sh.scheduleCredit(xfer+linkLat, ref)
			} else {
				// Credit for an upstream router another shard owns:
				// deferred to the end of the epoch, which its landing
				// cycle now+xfer+linkLat lies beyond (parallel.go).
				outCred := sh.outCred[sh.eng.par]
				outCred[up.part] = append(outCred[up.part], credMsg{at: now + xfer + linkLat, ref: ref})
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
func (sh *shard) injectStage() {
	if sh.workDone() {
		act := sh.acts.node
		for id := act.nextFrom(0); id >= 0; id = act.nextFrom(id + 1) {
			sh.tryInject(id)
		}
		return
	}
	net := sh.net
	srcCap := int32(sh.cfg.SourceQueueCap)
	for _, id32 := range sh.nodes {
		id := int(id32)
		loc := &net.nodes[id]
		if net.mem.q[loc.srcQ].n < srcCap {
			if dst, ok := sh.work.NextPacket(id, sh.now, sh.rng); ok {
				h := sh.slab.alloc()
				p := sh.pkt(h)
				p.ID = sh.nextID
				p.Src = id32
				p.Dst = int32(dst)
				p.SrcRouter = loc.router
				p.DstRouter = net.nodes[dst].router
				p.Flits = int32(sh.pktFlits)
				p.GenTime = sh.now
				p.Intermediate = -1
				sh.nextID++
				sh.generated++
				net.pushSrc(sh.acts, id, h)
			}
		}
		sh.tryInject(id)
	}
}

// tryInject attempts to start one packet from a node onto its terminal
// link: the oldest ready retransmission if any, else the source-queue
// head.
func (sh *shard) tryInject(node int) {
	net := sh.net
	loc := &net.nodes[node]
	if net.mem.i64[loc.linkFree] > sh.now {
		return
	}
	// Retransmissions of dropped packets take priority over fresh
	// traffic: they are older and gate drain completion.
	retx := -1
	var h pktHandle
	var p *Packet
	if sh.faults != nil {
		retx = net.readyRetx(node, sh.now)
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
		p = sh.pkt(h)
	}
	r := net.Routers[loc.router]
	vc := sh.alg.Inject(p, r, sh.rng)
	credits := &net.mem.w32[int(loc.credits)+vc]
	if *credits < int32(sh.pktFlits) {
		return
	}
	*credits -= int32(sh.pktFlits)
	if retx >= 0 {
		// Re-home the parked copy into this shard's slab before
		// removing it from the queue (DESIGN.md §15).
		h = sh.slab.alloc()
		np := sh.pkt(h)
		*np = *p
		p = np
		net.takeRetx(node, retx)
		if len(net.retxQ[node]) == 0 && net.mem.q[loc.srcQ].empty() {
			sh.acts.node.clear(node)
		}
		sh.retxWaiting--
		sh.retransmits++
	} else {
		net.popSrc(sh.acts, node)
	}
	p.InjectTime = sh.now
	sh.injected++
	if sh.tel != nil {
		if retx >= 0 {
			sh.tel.Retransmit(sh.now, p.ID, int(p.Src), int(p.Dst), r.ID, vc, sh.pktFlits)
		} else {
			sh.tel.Inject(sh.now, p.ID, int(p.Src), int(p.Dst), r.ID, vc, sh.pktFlits)
		}
	}
	if sh.now >= sh.warmup {
		sh.injectedFlitsWindow += int64(sh.pktFlits)
	}
	net.mem.i64[loc.linkFree] = sh.now + int64(sh.pktFlits)
	r.enqueueIn(net.terminalPortFor(node), vc, entry{h: h, ready: sh.now + int64(sh.cfg.LinkLatency), outPort: unrouted})
}
