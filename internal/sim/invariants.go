package sim

import (
	"fmt"
	"sort"
)

// CheckInvariants validates the engine's conservation laws at the
// current cycle; it is the simulator's self-test, used by the test
// suite after (and during) runs. Everything the hot path keeps beside
// the queues themselves is re-derived here from first principles:
//
//   - packet conservation: generated = injected + source-queued and
//     injected = delivered + in-network;
//   - credit conservation: for every link, the upstream credit counter
//     plus the flits resident downstream never exceeds the input buffer
//     capacity;
//   - occupancy: counters are non-negative and within capacity,
//     pendingOut equals the flits of the input entries routed to the
//     port, outOcc covers the packets its buffer holds, and occSum is
//     their sum;
//   - queue structure: an empty queue's inline head reads neverReady,
//     ready cycles never decrease along a queue, every resident packet
//     has the engine's size, and each shard's overflow rings and free
//     regions tile its ring arena exactly;
//   - active-set consistency: the wake bitsets and the per-shard
//     srcBusy counters agree with an exhaustive scan of the queues they
//     summarize, and no port's wake cycle is later than the first cycle
//     a full scan of it could route, grant or send (the wake-list
//     invariant of DESIGN.md §10; a wake cycle may be early).
//
// Valid only between launches, when the shards are at a common cycle,
// no worker is mid-stage and the mailboxes are empty.
func (e *Engine) CheckInvariants() error {
	net, now := e.Net, e.Now()
	cfg := net.Cfg
	pf := int32(cfg.PacketFlits())
	// The conservation counters, summed over the shards: a shard's own
	// in-network count can be transiently negative (a packet injected
	// on one shard is delivered on another) and its slab also holds
	// packets the counters attribute to other shards, but the sums obey
	// the laws.
	var c struct{ generated, injected, retransmits, delivered, droppedPkts, retxWaiting, live int64 }
	for _, sh := range e.shards {
		c.generated += sh.generated
		c.injected += sh.injected
		c.retransmits += sh.retransmits
		c.delivered += sh.delivered
		c.droppedPkts += sh.droppedPkts
		c.retxWaiting += sh.retxWaiting
		c.live += int64(sh.slab.live())
	}
	// rings[shard] collects the overflow rings in use as (offset, size),
	// to be checked against the shard's ring arena at the end.
	rings := make([][][2]int32, len(net.acts))
	checkQueue := func(q *queue, part int) error {
		mem, slab := net.acts[part].rings.mem, &e.shards[part].slab
		switch {
		case q.n < 0 || q.cap < 0 || q.cap&(q.cap-1) != 0 || q.n-1 > q.cap:
			return fmt.Errorf("%d entries over a ring of %d", q.n, q.cap)
		case q.cap > 0 && (q.start < 0 || q.start >= q.cap || q.off < 0 || int(q.off)+int(q.cap) > len(mem)):
			return fmt.Errorf("ring [%d,+%d) start %d outside an arena of %d", q.off, q.cap, q.start, len(mem))
		case q.n == 0 && q.head.ready != neverReady:
			return fmt.Errorf("empty but its head polls ready at %d", q.head.ready)
		}
		if q.cap > 0 {
			rings[part] = append(rings[part], [2]int32{q.off, q.cap})
		}
		last := int64(0)
		for i := 0; i < q.len(); i++ {
			ent := q.at(&net.acts[part].rings, i)
			if ent.ready < last || ent.ready == neverReady {
				return fmt.Errorf("entry %d ready at %d behind one ready at %d", i, ent.ready, last)
			}
			last = ent.ready
			if ent.h < 0 || int(ent.h) >= len(slab.arena) {
				return fmt.Errorf("entry %d holds handle %d outside a slab of %d", i, ent.h, len(slab.arena))
			}
			if p := slab.at(ent.h); p.Flits != pf {
				return fmt.Errorf("packet %d has %d flits, the engine moves %d", p.ID, p.Flits, pf)
			}
		}
		return nil
	}

	// Packet conservation. Injections count events, so retransmissions
	// of fault-dropped packets re-count: first-time injections are
	// injected - retransmits.
	var queued, retxQueued int64
	srcBusy := make([]int, len(net.acts))
	for id, loc := range net.nodes {
		r := net.Routers[loc.router]
		srcQ := &net.mem.q[loc.srcQ]
		if err := checkQueue(srcQ, r.part); err != nil {
			return fmt.Errorf("sim: node %d source queue: %w", id, err)
		}
		retx := 0
		if net.retxQ != nil {
			retx = len(net.retxQ[id])
		}
		queued += int64(srcQ.n)
		retxQueued += int64(retx)
		if !srcQ.empty() {
			srcBusy[r.part]++
		}
		if wantActive := !srcQ.empty() || retx > 0; r.acts.node.get(id) != wantActive {
			return fmt.Errorf("sim: node %d active bit %v, want %v", id, !wantActive, wantActive)
		}
		port := net.terminalPortFor(id)
		for vc, c := range net.mem.w32[loc.credits : int(loc.credits)+cfg.NumVCs] {
			if resident := pf * r.inQ[r.idx(port, vc)].n; c < 0 || int(c+resident) > cfg.InputBufFlits {
				return fmt.Errorf("sim: node %d vc %d credits %d with %d flits resident at its router, capacity %d",
					id, vc, c, resident, cfg.InputBufFlits)
			}
		}
	}
	for p, a := range net.acts {
		if srcBusy[p] != a.srcBusy {
			return fmt.Errorf("sim: shard %d has %d nodes with nonempty source queues, srcBusy says %d",
				p, srcBusy[p], a.srcBusy)
		}
	}
	if c.generated != c.injected-c.retransmits+queued {
		return fmt.Errorf("sim: generated %d != injected %d - retransmits %d + source-queued %d",
			c.generated, c.injected, c.retransmits, queued)
	}
	if c.delivered > c.injected {
		return fmt.Errorf("sim: delivered %d > injected %d", c.delivered, c.injected)
	}
	if inNet := c.injected - c.delivered - c.droppedPkts; inNet < 0 {
		return fmt.Errorf("sim: negative in-network count %d (injected %d, delivered %d, dropped %d)",
			inNet, c.injected, c.delivered, c.droppedPkts)
	}
	if retxQueued != c.retxWaiting {
		return fmt.Errorf("sim: retransmission queues hold %d packets, counter says %d", retxQueued, c.retxWaiting)
	}
	// Slab accounting: every live arena slot is either source-queued or
	// in the network (including the deliver ring); drops released their
	// slot (the retx queue parks packets by value).
	if want := queued + c.injected - c.delivered - c.droppedPkts; c.live != want {
		return fmt.Errorf("sim: packet slabs hold %d live slots, want %d (source-queued %d + in-network %d)",
			c.live, want, queued, c.injected-c.delivered-c.droppedPkts)
	}

	for _, r := range net.Routers {
		inCount, outCount := 0, 0
		pending := make([]int32, r.nPorts)
		for port := 0; port < r.nPorts; port++ {
			// inAt and outAt: the earliest cycle, not before now, at
			// which a full scan of the port could route or grant,
			// respectively send, judged from the queues alone.
			inAt, outAt := neverReady, neverReady
			for vc := 0; vc < cfg.NumVCs; vc++ {
				i := r.idx(port, vc)
				in, out := &r.inQ[i], &r.outQ[i]
				if err := checkQueue(in, r.part); err != nil {
					return fmt.Errorf("sim: router %d port %d vc %d input queue: %w", r.ID, port, vc, err)
				}
				if err := checkQueue(out, r.part); err != nil {
					return fmt.Errorf("sim: router %d port %d vc %d output queue: %w", r.ID, port, vc, err)
				}
				inCount += in.len()
				outCount += out.len()
				scanned := true // the scan reaches an entry only past ready ones, inside the window
				for j := 0; j < in.len(); j++ {
					ent := in.at(&r.acts.rings, j)
					at := max(ent.ready, now)
					switch {
					case ent.outPort >= 0 && (int(ent.outPort) >= r.nPorts || ent.outVC < 0 || int(ent.outVC) >= cfg.NumVCs):
						return fmt.Errorf("sim: router %d port %d vc %d entry %d routed to port %d vc %d",
							r.ID, port, vc, j, ent.outPort, ent.outVC)
					case ent.outPort >= 0:
						pending[ent.outPort] += pf
						at = max(at, r.outAccept[ent.outPort])
					case ent.outPort != unrouted && ent.outPort != rerouted:
						return fmt.Errorf("sim: router %d port %d vc %d entry %d has route state %d",
							r.ID, port, vc, j, ent.outPort)
					}
					if scanned && j < cfg.AllocWindow {
						inAt = min(inAt, at)
					}
					scanned = scanned && ent.ready <= now
				}
				if !out.empty() {
					outAt = min(outAt, max(out.head.ready, now))
				}
				switch {
				case r.outOcc[i] < pf*out.n || int(r.outOcc[i]) > cfg.OutputBufFlits:
					return fmt.Errorf("sim: router %d port %d vc %d outOcc %d with %d packets buffered, capacity %d",
						r.ID, port, vc, r.outOcc[i], out.n, cfg.OutputBufFlits)
				case r.credits[i] < 0:
					return fmt.Errorf("sim: router %d port %d vc %d credits %d < 0", r.ID, port, vc, r.credits[i])
				}
				if !r.isTerminal(port) {
					down := net.Routers[r.neighbor[port]]
					resident := pf * down.inQ[down.idx(int(r.revPort[port]), vc)].n
					if int(r.credits[i]+resident) > cfg.InputBufFlits {
						return fmt.Errorf("sim: router %d port %d vc %d credits %d + %d flits resident downstream > capacity %d",
							r.ID, port, vc, r.credits[i], resident, cfg.InputBufFlits)
					}
				}
			}
			if at := max(inAt, r.inPortFree[port]); r.inWake[port] > at {
				return fmt.Errorf("sim: router %d input port %d wakes at %d but could route or grant at %d (cycle %d)",
					r.ID, port, r.inWake[port], at, now)
			}
			if at := max(outAt, r.linkFree[port]); r.outWake[port] > at {
				return fmt.Errorf("sim: router %d output port %d wakes at %d but could send at %d (cycle %d)",
					r.ID, port, r.outWake[port], at, now)
			}
		}
		if inCount != r.inCount || outCount != r.outCount {
			return fmt.Errorf("sim: router %d queue counters (%d,%d) != actual (%d,%d)",
				r.ID, r.inCount, r.outCount, inCount, outCount)
		}
		if r.acts.in.get(r.ID) != (inCount > 0) || r.acts.out.get(r.ID) != (outCount > 0) {
			return fmt.Errorf("sim: router %d active bits (in=%v,out=%v) disagree with queue counts (%d,%d)",
				r.ID, r.acts.in.get(r.ID), r.acts.out.get(r.ID), inCount, outCount)
		}
		for port, want := range pending {
			if r.pendingOut[port] != want {
				return fmt.Errorf("sim: router %d port %d pendingOut %d, input entries routed to it hold %d flits",
					r.ID, port, r.pendingOut[port], want)
			}
			for _, occ := range r.outOcc[port*r.nv : (port+1)*r.nv] {
				want += occ
			}
			if r.occSum[port] != want {
				return fmt.Errorf("sim: router %d port %d occSum %d != pendingOut+outOcc %d",
					r.ID, port, r.occSum[port], want)
			}
		}
	}

	// Every shard's rings in use plus its free regions must tile its
	// arena: a gap is leaked storage, an overlap two queues writing the
	// same slots.
	for part, a := range net.acts {
		mem, regs := a.rings.mem, rings[part]
		for k, f := range a.rings.free {
			for f != 0 {
				if int(f) > len(mem) || len(regs) > len(mem) {
					return fmt.Errorf("sim: shard %d ring arena: free list of size %d is corrupt", part, 1<<k)
				}
				regs = append(regs, [2]int32{f - 1, 1 << k})
				f = int32(mem[f-1].h)
			}
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i][0] < regs[j][0] })
		end := int32(0)
		for _, reg := range regs {
			if reg[0] != end {
				return fmt.Errorf("sim: shard %d ring arena: region at %d follows one ending at %d", part, reg[0], end)
			}
			end += reg[1]
		}
		if int(end) != len(mem) {
			return fmt.Errorf("sim: shard %d ring arena: regions cover %d of %d entries", part, end, len(mem))
		}
	}
	return nil
}

// RunChecked is Run with invariant checks every checkEvery cycles
// (and once at the end); it returns the first violation found.
func (e *Engine) RunChecked(n, checkEvery int64) error {
	for checkEvery = max(checkEvery, 1); n > checkEvery; n -= checkEvery {
		e.Run(checkEvery)
		if err := e.CheckInvariants(); err != nil {
			return fmt.Errorf("%w (at cycle %d)", err, e.Now())
		}
	}
	e.Run(n)
	return e.CheckInvariants()
}
