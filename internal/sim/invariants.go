package sim

import "fmt"

// engineCounts is the set of conservation counters an invariant check
// needs. A serial engine supplies its own; a ParallelEngine sums them
// across shards (per-shard values of in-network packets can be
// transiently negative when a packet injected on one shard is
// delivered on another, but the sums obey the same laws).
type engineCounts struct {
	generated   int64
	injected    int64
	retransmits int64
	delivered   int64
	droppedPkts int64
	retxWaiting int64
}

// CheckInvariants validates the engine's conservation laws at the
// current cycle; it is the simulator's self-test, used by the test
// suite after (and during) runs. It verifies:
//
//   - packet conservation: generated = injected + source-queued and
//     injected = delivered + in-network;
//   - credit conservation: for every network link, the upstream credit
//     counter plus flits resident or in flight downstream never
//     exceeds the input buffer capacity;
//   - occupancy sanity: all occupancy and credit counters are
//     non-negative and within capacity;
//   - active-set consistency: the wake bitsets, per-port packet
//     counters and the per-shard srcBusy counters agree with an
//     exhaustive scan of the queues they summarize (the wake-list
//     invariant of DESIGN.md §10).
func (e *Engine) CheckInvariants() error {
	if err := checkInvariants(e.Net, e.Cfg, engineCounts{
		generated:   e.generated,
		injected:    e.injected,
		retransmits: e.retransmits,
		delivered:   e.delivered,
		droppedPkts: e.droppedPkts,
		retxWaiting: e.retxWaiting,
	}); err != nil {
		return err
	}
	if e.par == nil {
		// Slab accounting (serial engines only — a shard's slab also
		// holds packets the conservation counters attribute to other
		// shards): every live arena slot is either source-queued or
		// in the network (including the deliver ring); drops released
		// their slot (the retx queue parks packets by value).
		var queued int64
		for _, loc := range e.Net.nodes {
			queued += int64(e.Net.mem.q[loc.srcQ].n)
		}
		want := queued + e.injected - e.delivered - e.droppedPkts
		if live := int64(e.slab.live()); live != want {
			return fmt.Errorf("sim: packet slab holds %d live slots, want %d (source-queued %d + in-network %d)",
				live, want, queued, e.injected-e.delivered-e.droppedPkts)
		}
	}
	return nil
}

// checkInvariants runs the full invariant sweep over a network given
// whole-simulation conservation counters (see CheckInvariants).
func checkInvariants(net *Network, cfg Config, c engineCounts) error {
	// Packet conservation. Injections count events, so retransmissions
	// of fault-dropped packets re-count: first-time injections are
	// injected - retransmits.
	var queued, retxQueued int64
	srcBusy := make([]int, len(net.acts))
	for id, loc := range net.nodes {
		r := net.Routers[loc.router]
		srcQ := &net.mem.q[loc.srcQ]
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

	// Counter sanity.
	for _, r := range net.Routers {
		inCount, outCount := 0, 0
		for i := range r.inQ {
			inCount += r.inQ[i].len()
		}
		for i := range r.outQ {
			outCount += r.outQ[i].len()
		}
		if inCount != r.inCount || outCount != r.outCount {
			return fmt.Errorf("sim: router %d queue counters (%d,%d) != actual (%d,%d)",
				r.ID, r.inCount, r.outCount, inCount, outCount)
		}
		if r.acts.in.get(r.ID) != (inCount > 0) || r.acts.out.get(r.ID) != (outCount > 0) {
			return fmt.Errorf("sim: router %d active bits (in=%v,out=%v) disagree with queue counts (%d,%d)",
				r.ID, r.acts.in.get(r.ID), r.acts.out.get(r.ID), inCount, outCount)
		}
		for port := 0; port < r.nPorts; port++ {
			inPkts, outPkts := 0, 0
			for vc := 0; vc < cfg.NumVCs; vc++ {
				inPkts += r.inQ[r.idx(port, vc)].len()
				outPkts += r.outQ[r.idx(port, vc)].len()
			}
			if inPkts != int(r.inPortPkts[port]) || outPkts != int(r.outPortPkts[port]) {
				return fmt.Errorf("sim: router %d port %d packet counters (%d,%d) != actual (%d,%d)",
					r.ID, port, r.inPortPkts[port], r.outPortPkts[port], inPkts, outPkts)
			}
			if r.inMask.get(port) != (inPkts > 0) || r.outMask.get(port) != (outPkts > 0) {
				return fmt.Errorf("sim: router %d port %d mask bits (in=%v,out=%v) disagree with packet counts (%d,%d)",
					r.ID, port, r.inMask.get(port), r.outMask.get(port), inPkts, outPkts)
			}
			for vc := 0; vc < cfg.NumVCs; vc++ {
				i := r.idx(port, vc)
				if r.outOcc[i] < 0 {
					return fmt.Errorf("sim: router %d port %d vc %d outOcc %d < 0", r.ID, port, vc, r.outOcc[i])
				}
				if int(r.outOcc[i]) > cfg.OutputBufFlits {
					return fmt.Errorf("sim: router %d port %d vc %d outOcc %d > capacity %d",
						r.ID, port, vc, r.outOcc[i], cfg.OutputBufFlits)
				}
				if r.credits[i] < 0 {
					return fmt.Errorf("sim: router %d port %d vc %d credits %d < 0", r.ID, port, vc, r.credits[i])
				}
				if !r.isTerminal(port) && int(r.credits[i]) > cfg.InputBufFlits {
					return fmt.Errorf("sim: router %d port %d vc %d credits %d > capacity %d",
						r.ID, port, vc, r.credits[i], cfg.InputBufFlits)
				}
			}
			if r.pendingOut[port] < 0 {
				return fmt.Errorf("sim: router %d port %d pendingOut %d < 0", r.ID, port, r.pendingOut[port])
			}
			want := r.pendingOut[port]
			for vc := 0; vc < cfg.NumVCs; vc++ {
				want += r.outOcc[r.idx(port, vc)]
			}
			if r.occSum[port] != want {
				return fmt.Errorf("sim: router %d port %d occSum %d != pendingOut+outOcc %d",
					r.ID, port, r.occSum[port], want)
			}
		}
	}
	for id, loc := range net.nodes {
		for vc, c := range net.mem.w32[loc.credits : int(loc.credits)+cfg.NumVCs] {
			if c < 0 || int(c) > cfg.InputBufFlits {
				return fmt.Errorf("sim: node %d vc %d credits %d out of [0,%d]", id, vc, c, cfg.InputBufFlits)
			}
		}
	}
	return nil
}

// RunChecked is Run with invariant checks every checkEvery cycles
// (and once at the end); it returns the first violation found.
func (e *Engine) RunChecked(n, checkEvery int64) error {
	if checkEvery < 1 {
		checkEvery = 1
	}
	for i := int64(0); i < n; i++ {
		e.Step()
		if i%checkEvery == checkEvery-1 {
			if err := e.CheckInvariants(); err != nil {
				return fmt.Errorf("%w (at cycle %d)", err, e.now)
			}
		}
	}
	return e.CheckInvariants()
}
