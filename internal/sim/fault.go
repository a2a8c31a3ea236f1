package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"diam2/internal/graph"
	"diam2/internal/topo"
)

// This file implements dynamic fault injection: router-to-router links
// go down (and come back up) at scheduled cycles while the simulation
// runs. The failure semantics are:
//
//   - A downed link stops transmitting: the link stage skips its ports
//     in both directions.
//   - Flits in flight on the link when it fails are dropped, and
//     packets already committed to the dead output buffers are lost.
//   - Every lost packet is retransmitted by its source after a
//     configurable timeout with exponential backoff (Config.RetxTimeout).
//   - Routing tables are rebuilt from the degraded graph — the same
//     semantics as topo.Degrade, including the refusal to disconnect
//     the network — but only after Config.RebuildLatency cycles; in
//     that window packets route on stale tables and those that commit
//     to a dead output buffer are dropped (and retransmitted) when the
//     rebuild lands, while packets still waiting on the input side are
//     detoured onto the fresh tables.
//
// Static (pre-run) failures remain the domain of topo.Degrade; the
// dynamic path exists to measure recovery, not just the degraded
// steady state.

// FaultEvent is one link transition. Link holds the two router
// endpoints in either order; Up false fails the link, Up true repairs
// it.
type FaultEvent struct {
	Cycle int64
	Link  [2]int
	Up    bool
}

// FaultSchedule is an ordered list of link transitions the engine
// consumes during the run.
type FaultSchedule struct {
	Events []FaultEvent
}

// canonLink orders a link's endpoints (low, high) so schedules, maps
// and graph edges agree on the key.
func canonLink(l [2]int) [2]int {
	if l[0] > l[1] {
		return [2]int{l[1], l[0]}
	}
	return l
}

// NewFaultSchedule copies and canonicalizes the events, sorting by
// cycle (repairs before failures within a cycle, then by link) so the
// engine applies them deterministically.
func NewFaultSchedule(events []FaultEvent) *FaultSchedule {
	evs := append([]FaultEvent(nil), events...)
	for i := range evs {
		evs[i].Link = canonLink(evs[i].Link)
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Up != b.Up {
			return a.Up // repairs first: a link may fail again the same cycle
		}
		if a.Link[0] != b.Link[0] {
			return a.Link[0] < b.Link[0]
		}
		return a.Link[1] < b.Link[1]
	})
	return &FaultSchedule{Events: evs}
}

// RandomLinkFailures picks count distinct router links, uniformly at
// random from the given seed, whose cumulative removal keeps the
// router graph connected, and fails them all at cycle at (never to be
// repaired). It errors if fewer than count links can be removed
// without disconnecting the network.
func RandomLinkFailures(t topo.Topology, count int, at int64, seed int64) (*FaultSchedule, error) {
	g := t.Graph()
	edges := g.Edges()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	down := make(map[[2]int]bool, count)
	var evs []FaultEvent
	for _, e := range edges {
		if len(evs) == count {
			break
		}
		down[e] = true
		if !subgraphWithout(g, down).Connected() {
			delete(down, e)
			continue
		}
		evs = append(evs, FaultEvent{Cycle: at, Link: e})
	}
	if len(evs) < count {
		return nil, fmt.Errorf("sim: only %d of %d links removable without disconnecting %s", len(evs), count, t.Name())
	}
	return NewFaultSchedule(evs), nil
}

// NewRandomFaultSchedule draws an MTBF-driven failure process over
// [0, horizon): each router link independently fails with exponential
// inter-failure times of mean mtbf cycles and is repaired mttr cycles
// later. Seed the generator from Config.Seed for deterministic runs.
func NewRandomFaultSchedule(t topo.Topology, mtbf, mttr, horizon int64, seed int64) *FaultSchedule {
	if mtbf < 1 {
		mtbf = 1
	}
	if mttr < 1 {
		mttr = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var evs []FaultEvent
	for _, e := range t.Graph().Edges() { // sorted order keeps draws deterministic
		at := int64(rng.ExpFloat64() * float64(mtbf))
		for at < horizon {
			evs = append(evs, FaultEvent{Cycle: at, Link: e})
			up := at + mttr
			if up >= horizon {
				break
			}
			evs = append(evs, FaultEvent{Cycle: up, Link: e, Up: true})
			at = up + 1 + int64(rng.ExpFloat64()*float64(mtbf))
		}
	}
	return NewFaultSchedule(evs)
}

// RerouteAware is implemented by routing algorithms whose tables can
// be rebuilt from a changed router graph mid-run. The engine requires
// it of any algorithm used with a fault schedule.
type RerouteAware interface {
	Rebuild(g *graph.Graph)
}

// faultState is the engine's view of the schedule and the current
// failure set.
type faultState struct {
	schedule  []FaultEvent
	next      int             // index of the next unapplied event
	down      map[[2]int]bool // currently failed links (canonical keys)
	rebuildAt int64           // cycle the pending table rebuild lands; -1 if none
}

// retxEntry is one lost packet waiting at its source for retransmission.
// The packet is parked by value: a dropped packet's slab slot is
// released at the drop, so the retx queue never holds a handle into any
// shard's slab — a packet dropped at a router one shard owns can wait
// at a source node another shard owns without sharing arena state
// (DESIGN.md §15). tryInject re-homes the copy into the injecting
// shard's slab.
type retxEntry struct {
	pkt   Packet
	ready int64 // cycle the retransmission timer expires
}

// SetFaultSchedule attaches a fault schedule to the engine. It must be
// called before the first cycle, the routing algorithm must implement
// RerouteAware, and every scheduled link must exist in the topology.
// The shards share one fault state: shard 0 applies the events at the
// epoch barrier, the rest need it to service their nodes'
// retransmission queues.
func (e *Engine) SetFaultSchedule(fs *FaultSchedule) error {
	if e.Now() != 0 {
		return fmt.Errorf("sim: fault schedule must be attached before the run starts")
	}
	ra, ok := e.Alg.(RerouteAware)
	if !ok {
		return fmt.Errorf("sim: routing algorithm %s cannot rebuild its tables (does not implement RerouteAware)", e.Alg.Name())
	}
	g := e.Net.Topo.Graph()
	sorted := NewFaultSchedule(fs.Events)
	for _, ev := range sorted.Events {
		if ev.Cycle < 0 {
			return fmt.Errorf("sim: fault event at negative cycle %d", ev.Cycle)
		}
		if !g.HasEdge(ev.Link[0], ev.Link[1]) {
			return fmt.Errorf("sim: fault schedule names nonexistent link (%d,%d)", ev.Link[0], ev.Link[1])
		}
	}
	if e.Cfg.RetxTimeout <= 0 {
		// Default: comfortably above one network traversal so healthy
		// packets are never retransmitted spuriously.
		e.Cfg.RetxTimeout = 64 * (e.Cfg.SwitchLatency + e.Cfg.LinkLatency)
	}
	faults := &faultState{
		schedule:  sorted.Events,
		down:      make(map[[2]int]bool),
		rebuildAt: -1,
	}
	for _, sh := range e.shards {
		sh.faults = faults
		sh.reroute = ra
		sh.cfg.RetxTimeout = e.Cfg.RetxTimeout
	}
	for _, r := range e.Net.Routers {
		r.portDown = make([]bool, r.netPorts)
	}
	e.Net.retxQ = make([][]retxEntry, len(e.Net.nodes))
	return nil
}

// nextCycle returns the first cycle at which faultTick has work: the
// next unapplied event's or the pending table rebuild's, neverReady if
// neither exists. The driver ends an epoch there (parallel.go).
func (f *faultState) nextCycle() int64 {
	at := neverReady
	if f.next < len(f.schedule) {
		at = f.schedule[f.next].Cycle
	}
	if f.rebuildAt >= 0 {
		at = min(at, f.rebuildAt)
	}
	return at
}

// faultTick applies due schedule events and any pending table rebuild.
// Called by the boundary action at a cycle nextCycle names, before
// packets move and with every mailbox empty.
func (sh *shard) faultTick() {
	f := sh.faults
	changed := false
	for f.next < len(f.schedule) && f.schedule[f.next].Cycle <= sh.now {
		ev := f.schedule[f.next]
		f.next++
		if ev.Up {
			if sh.applyUp(ev.Link) {
				changed = true
			}
		} else if sh.applyDown(ev.Link) {
			changed = true
		}
	}
	if changed {
		f.rebuildAt = sh.now + int64(sh.cfg.RebuildLatency)
	}
	if f.rebuildAt >= 0 && sh.now >= f.rebuildAt {
		sh.rebuildTables()
	}
}

// applyDown fails a link: both directions stop transmitting, in-flight
// flits and packets parked on the dead output buffers are dropped for
// retransmission. Failures that would disconnect the router graph are
// skipped (and counted), mirroring topo.Degrade's refusal.
func (sh *shard) applyDown(link [2]int) bool {
	f := sh.faults
	if f.down[link] {
		sh.faultsSkipped++
		return false
	}
	f.down[link] = true
	if !sh.liveGraph().Connected() {
		delete(f.down, link)
		sh.faultsSkipped++
		return false
	}
	u, v := sh.net.Routers[link[0]], sh.net.Routers[link[1]]
	u.portDown[u.portTo(v.ID)] = true
	v.portDown[v.portTo(u.ID)] = true
	sh.dropLinkTraffic(u, v)
	sh.dropLinkTraffic(v, u)
	sh.linkDowns++
	return true
}

// applyUp repairs a link. Credits were restored when the in-flight
// drops happened, so transmission can resume immediately; the routing
// tables catch up after the rebuild window.
func (sh *shard) applyUp(link [2]int) bool {
	f := sh.faults
	if !f.down[link] {
		sh.faultsSkipped++
		return false
	}
	delete(f.down, link)
	u, v := sh.net.Routers[link[0]], sh.net.Routers[link[1]]
	u.portDown[u.portTo(v.ID)] = false
	v.portDown[v.portTo(u.ID)] = false
	sh.linkUps++
	return true
}

// dropLinkTraffic handles the u->v direction of a failing link: flits
// still propagating toward v are lost (their downstream buffer space
// and upstream credits are reclaimed), and packets already committed
// to u's output buffer for the dead port can never leave it.
func (sh *shard) dropLinkTraffic(u, v *Router) {
	pu := u.portTo(v.ID)
	pv := v.portTo(u.ID)
	for vc := 0; vc < sh.cfg.NumVCs; vc++ {
		q := &v.inQ[v.idx(pv, vc)]
		for i := q.len() - 1; i >= 0; i-- {
			// Entries with ready > now are still on the wire. (They can
			// never carry a cached route decision: switch allocation
			// only inspects entries whose head flit has arrived.)
			if q.at(&v.acts.rings, i).ready > sh.now {
				ent := v.takeIn(pv, vc, i)
				u.credits[u.idx(pu, vc)] += int32(sh.pktFlits)
				// The flits never arrived: restitute the utilization
				// credit LinkTraverse granted when the transfer
				// started, alongside the buffer credits.
				if sh.tel != nil {
					sh.tel.LinkRestitute(u.ID, v.ID, vc, sh.pktFlits)
				}
				// The entry's handle indexes the slab of the shard
				// owning v (faultTick runs with every other worker
				// parked at the barrier, so touching a foreign slab is
				// safe here).
				slab := sh.slabFor(v)
				sh.dropPacket(slab.at(ent.h), u.ID, pu, vc)
				slab.release(ent.h)
			}
		}
		sh.dropDeadOutput(u, pu, vc)
	}
}

// dropDeadOutput drains one (port, vc) output buffer of a downed link,
// sending every packet back to its source for retransmission.
func (sh *shard) dropDeadOutput(r *Router, port, vc int) {
	q := &r.outQ[r.idx(port, vc)]
	slab := sh.slabFor(r)
	for !q.empty() {
		ent := r.dequeueOut(port, vc)
		r.outOcc[r.idx(port, vc)] -= int32(sh.pktFlits)
		r.occSum[port] -= int32(sh.pktFlits)
		sh.dropPacket(slab.at(ent.h), r.ID, port, vc)
		slab.release(ent.h)
	}
}

// rebuildTables lands a pending routing-table rebuild: the algorithm
// recomputes its tables from the live (degraded) graph, packets that
// stale routing parked on dead output buffers are dropped, and cached
// next-hop decisions on the input side are forgotten so those packets
// detour onto the fresh tables.
func (sh *shard) rebuildTables() {
	f := sh.faults
	f.rebuildAt = -1
	sh.reroute.Rebuild(sh.liveGraph())
	sh.rebuilds++
	for _, link := range f.sortedDown() {
		u, v := sh.net.Routers[link[0]], sh.net.Routers[link[1]]
		for vc := 0; vc < sh.cfg.NumVCs; vc++ {
			sh.dropDeadOutput(u, u.portTo(v.ID), vc)
			sh.dropDeadOutput(v, v.portTo(u.ID), vc)
		}
	}
	pf := int32(sh.pktFlits)
	for _, r := range sh.net.Routers {
		if r.inCount == 0 {
			continue
		}
		// Forgotten routes must be re-decided at once, not when the ports
		// would next have had something to grant.
		for p := range r.inWake {
			r.inWake[p] = 0
		}
		for i := range r.inQ {
			q := &r.inQ[i]
			for j := 0; j < q.len(); j++ {
				ent := q.at(&r.acts.rings, j)
				if ent.outPort >= 0 {
					r.pendingOut[ent.outPort] -= pf
					r.occSum[ent.outPort] -= pf
					ent.outPort = rerouted
				}
			}
		}
	}
}

// sortedDown returns the currently failed links in deterministic
// order (map iteration order must not leak into packet order).
func (f *faultState) sortedDown() [][2]int {
	out := make([][2]int, 0, len(f.down))
	for l := range f.down {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// liveGraph builds the router graph minus the currently failed links —
// the graph routing tables are rebuilt from.
func (sh *shard) liveGraph() *graph.Graph {
	return subgraphWithout(sh.net.Topo.Graph(), sh.faults.down)
}

func subgraphWithout(base *graph.Graph, down map[[2]int]bool) *graph.Graph {
	g := graph.New(base.N())
	for _, ed := range base.Edges() {
		if !down[ed] {
			g.MustAddEdge(ed[0], ed[1])
		}
	}
	return g
}

// dropPacket removes a packet from the network and queues it at its
// source for retransmission after the timeout, doubling per attempt
// (exponential backoff, capped so the shift stays sane). router, port
// and vc locate the failing link for the telemetry flight recorder.
func (sh *shard) dropPacket(p *Packet, router, port, vc int) {
	if sh.tel != nil {
		sh.tel.Drop(sh.now, p.ID, int(p.Src), int(p.Dst), router, port, vc)
	}
	sh.droppedPkts++
	if p.Retx == 0 {
		p.FirstDrop = sh.now
	}
	if p.Retx < math.MaxInt16 {
		p.Retx++
	}
	shift := p.Retx - 1
	if shift > 16 {
		shift = 16
	}
	net := sh.net
	net.retxQ[p.Src] = append(net.retxQ[p.Src], retxEntry{pkt: *p, ready: sh.now + int64(sh.cfg.RetxTimeout)<<shift})
	// The pending retransmission is injection work: wake the node (in
	// its router's shard) so the drain-phase injectStage revisits it
	// when the timer expires.
	net.Routers[p.SrcRouter].acts.node.set(int(p.Src))
	sh.retxWaiting++
}

// readyRetx returns the index of the retransmission entry with the
// earliest expired timer (FIFO among ties), or -1 if none is due.
func (n *Network) readyRetx(node int, now int64) int {
	best := -1
	q := n.retxQ[node]
	for i, ent := range q {
		if ent.ready <= now && (best < 0 || ent.ready < q[best].ready) {
			best = i
		}
	}
	return best
}

// takeRetx removes the i-th retransmission entry. Callers that need
// the parked packet must copy it out first (the removal shifts the
// slice).
func (n *Network) takeRetx(node, i int) {
	q := n.retxQ[node]
	n.retxQ[node] = append(q[:i], q[i+1:]...)
}

// FaultStats summarizes the fault-injection activity of a run. All
// zeros when no fault schedule was attached.
type FaultStats struct {
	LinkDownEvents int64 // link failures applied
	LinkUpEvents   int64 // link repairs applied
	SkippedEvents  int64 // events ignored (redundant, or would disconnect)
	Rebuilds       int64 // routing-table rebuilds landed
	Dropped        int64 // packet drop events (in-flight or stale-routed)
	Retransmits    int64 // re-injections of dropped packets
	RetxPending    int64 // drops still awaiting retransmission at the end
	MaxRecovery    int64 // max cycles from a packet's first drop to its delivery
}

// FaultStats returns the run's fault counters, summed over the shards.
func (e *Engine) FaultStats() FaultStats {
	var fs FaultStats
	for _, sh := range e.shards {
		fs.LinkDownEvents += sh.linkDowns
		fs.LinkUpEvents += sh.linkUps
		fs.SkippedEvents += sh.faultsSkipped
		fs.Rebuilds += sh.rebuilds
		fs.Dropped += sh.droppedPkts
		fs.Retransmits += sh.retransmits
		fs.RetxPending += sh.retxWaiting
		fs.MaxRecovery = max(fs.MaxRecovery, sh.recoveryMax)
	}
	return fs
}

// DownedLinks returns the links currently failed (empty without a
// schedule), in deterministic order.
func (e *Engine) DownedLinks() [][2]int {
	if f := e.shards[0].faults; f != nil {
		return f.sortedDown()
	}
	return nil
}
