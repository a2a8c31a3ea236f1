package sim

import (
	"fmt"
	"math"

	"diam2/internal/telemetry"
	"diam2/internal/topo"
)

// Router is the simulator model of one switch: per-port, per-VC input
// and output buffers joined by a crossbar with speedup 1.
//
// Port layout: network ports first (one per neighbor, in
// graph-neighbor order), then one terminal port per attached node.
type Router struct {
	ID       int
	net      *Network
	nPorts   int
	netPorts int
	nv       int // == net.Cfg.NumVCs, cached off the hot path's pointer chase

	rrIn     int // round-robin pointer over input ports
	inCount  int // packets currently buffered in input queues
	outCount int // packets currently buffered in output queues

	// acts points at the active-set group of the engine shard that owns
	// this router; part is that shard's index. A one-shard engine owns
	// every router through the single group in Network.acts, so part is
	// 0 and all routers share one pointer. From two shards up the
	// engine reassigns both (see parallel.go) so each shard's queue
	// mutations touch only its own bitset words and ring arena —
	// sharing either across shards would be a data race.
	acts *actSet
	part int

	// Everything below is a view into the router's block of
	// Network.mem, laid out by carve in this order and in the narrowest
	// type that NewNetwork's range checks admit (DESIGN.md §15 has the
	// budget in bytes and cache lines).

	// Wake cycles: the switch stage visits input port p only once
	// inWake[p] has come, the link stage output port p once outWake[p]
	// has — one compare on a contiguous array per skipped port. A wake
	// cycle is never later than the first cycle at which the port could
	// route, grant or send (it may be earlier: the visit then finds
	// nothing and recomputes it), and neverReady for a port that holds
	// nothing. The stages raise them, the enqueue wrappers below lower
	// them, and fault recovery resets them (DESIGN.md §10).
	inWake  []int64
	outWake []int64

	inPortFree []int64 // input port -> cycle it can start a new stream
	outAccept  []int64 // output port -> cycle the crossbar output can accept a new stream
	linkFree   []int64 // output port -> cycle the outgoing link is free

	inQ  []queue // [port*numVC + vc]
	outQ []queue

	outOcc  []int32 // reserved output-buffer occupancy, flits [port*numVC+vc]
	credits []int32 // free space in the downstream input buffer [port*numVC+vc]

	// pendingOut[port] counts flits sitting in this router's input
	// buffers whose (cached) route decision targets the port — the
	// virtual-output-queue load. Together with the output buffer
	// occupancy it forms the congestion signal adaptive routing
	// reads: in an input-output-buffered switch the output buffer
	// alone stays near-empty even on a hot port, because the
	// crossbar feeds it no faster than the link drains it; the
	// backlog lives on the input side.
	pendingOut []int32

	// occSum[port] caches pendingOut[port] + Σ_vc outOcc[port*nv+vc],
	// the congestion signal OutOccupancy serves. Adaptive routing reads
	// the signal for every candidate port of every routing decision, so
	// it is maintained incrementally at the (few) mutation sites of
	// pendingOut/outOcc instead of summed per query. CheckInvariants
	// re-derives it from scratch and cross-checks.
	occSum []int32

	neighbor []int32 // network port -> neighbor router
	revPort  []int16 // network port -> the port at that neighbor that leads back here
	rrVC     []int16 // per input port, round-robin pointer over VCs
	rrOut    []int16 // per output port, round-robin pointer over VCs

	// Indices of credits[0], outOcc[0] and occSum[0] in Network.mem.w32,
	// and of the first attached node's first per-VC credit (the nodes of
	// a router follow each other, by terminal port): what deferred credit
	// returns and buffer releases are addressed by.
	creditsAt, outOccAt, occSumAt, nodeCreditsAt uint32

	// portDown marks network ports whose link is currently failed.
	// Nil unless a fault schedule is attached (see fault.go).
	portDown []bool
}

// carve lays the router's arrays out in its block; with a zero arena it
// only measures.
func (r *Router) carve(l *layout, a *blockArena) {
	l.alignLine()
	p, q := r.nPorts, r.nPorts*r.nv
	r.inWake, _ = carve(l, a.i64, p)
	r.outWake, _ = carve(l, a.i64, p)
	r.inPortFree, _ = carve(l, a.i64, p)
	r.outAccept, _ = carve(l, a.i64, p)
	r.linkFree, _ = carve(l, a.i64, p)

	r.inQ, _ = carve(l, a.q, q)
	r.outQ, _ = carve(l, a.q, q)

	var at int
	r.credits, at = carve(l, a.w32, q)
	r.creditsAt = uint32(at)
	r.outOcc, at = carve(l, a.w32, q)
	r.outOccAt = uint32(at)
	r.occSum, at = carve(l, a.w32, p)
	r.occSumAt = uint32(at)
	r.pendingOut, _ = carve(l, a.w32, p)

	r.neighbor, _ = carve(l, a.w32, r.netPorts)
	r.revPort, _ = carve(l, a.h16, r.netPorts)
	r.rrVC, _ = carve(l, a.h16, p)
	r.rrOut, _ = carve(l, a.h16, p)
}

// Network wires the topology into routers and nodes.
type Network struct {
	Topo    topo.Topology
	Cfg     Config
	Routers []*Router

	// mem holds every router's hot state, one aligned block each (see
	// blockArena and Router.carve), the state of its attached nodes
	// included.
	mem blockArena

	// nodes says, per end-node, where its state sits in mem and which
	// router it hangs off; nodeRouterPort is the terminal port index at
	// that router (kept apart: ejection looks it up per packet, by
	// destination).
	nodes          []nodeLoc
	nodeRouterPort []int16

	// retxQ[node] holds the packets the network dropped that the node
	// will re-inject once their timeout expires. Nil unless a fault
	// schedule is attached (see fault.go).
	retxQ [][]retxEntry

	// Active sets (see activeset.go), grouped per engine shard: one
	// actSet per partition of the router set, each holding the wake
	// bitsets and srcBusy counter for the routers and nodes that shard
	// owns. NewNetwork builds one group covering everything, which a
	// one-shard engine keeps; from two shards up the engine
	// re-partitions into one group per shard (see parallel.go). Components reach their group through
	// Router.acts (a node through its router's) without consulting this
	// slice.
	acts []*actSet

	// tel mirrors Engine.tel so the queue-mutation wrappers can report
	// per-VC occupancy without a pointer chase through the engine. Nil
	// unless telemetry is attached; the wrappers pay one nil check.
	tel *telemetry.Collector
}

// nodeLoc locates an end-node: its router, and the indices of its
// source queue, terminal-link free cycle and first per-VC credit in
// mem.q, mem.i64 and mem.w32.
type nodeLoc struct {
	srcQ, linkFree, credits uint32
	router                  int32
}

// checkRanges rejects a topology or configuration whose sizes do not
// fit the narrow types of the hot state (entry.outPort/outVC, the int16
// and int32 arrays of a router's block, Packet's fields, pktHandle,
// ring offsets) — an error here instead of a silent wrap later.
func checkRanges(t topo.Topology, cfg Config) error {
	g := t.Graph()
	const max16, max32 = math.MaxInt16, math.MaxInt32
	if cfg.NumVCs > max16 {
		return fmt.Errorf("sim: NumVCs %d exceeds %d", cfg.NumVCs, max16)
	}
	if g.N() > max32 || t.Nodes() > max32 {
		return fmt.Errorf("sim: %d routers / %d nodes exceed %d", g.N(), t.Nodes(), max32)
	}
	if cfg.SourceQueueCap > max32 {
		return fmt.Errorf("sim: SourceQueueCap %d exceeds %d", cfg.SourceQueueCap, max32)
	}
	// Worst-case packets alive at once: every buffer and source queue
	// full. It bounds slab handles and, doubled for ring slack, ring
	// offsets.
	pkts := int64(t.Nodes()) * int64(cfg.SourceQueueCap)
	for r := 0; r < g.N(); r++ {
		ports := int64(g.Degree(r) + len(t.RouterNodes(r)))
		if ports > max16 {
			return fmt.Errorf("sim: router %d has %d ports, more than %d", r, ports, max16)
		}
		// occSum sums a port's output buffers and every input buffer of
		// the router that may be routed toward it.
		flits := ports * int64(cfg.NumVCs) * (int64(cfg.InputBufFlits) + int64(cfg.OutputBufFlits))
		if flits > max32 {
			return fmt.Errorf("sim: router %d buffers %d flits (InputBufFlits %d, OutputBufFlits %d), more than %d",
				r, flits, cfg.InputBufFlits, cfg.OutputBufFlits, max32)
		}
		pkts += flits / int64(cfg.PacketFlits())
	}
	if 2*pkts > max32 {
		return fmt.Errorf("sim: buffers hold up to %d packets, more than packet handles address (%d)", pkts, max32/2)
	}
	return nil
}

// carve lays mem out and returns its size; with a zero arena it only
// measures. The routers' blocks come first. The nodes' state follows as
// three dense arrays — source queues, terminal-link free cycles, per-VC
// credits — because the injection stage sweeps every node every cycle,
// in order, and a sweep wants consecutive lines. Within each array the
// nodes of one router are adjacent, by terminal port, and start on a
// cache line, so here too no line belongs to two routers.
func (n *Network) carve(a *blockArena) (size int) {
	var l layout
	for _, rt := range n.Routers {
		rt.carve(&l, a)
	}
	for _, rt := range n.Routers {
		l.alignLine()
		nodes := n.Topo.RouterNodes(rt.ID)
		_, at := carve(&l, a.q, len(nodes))
		for i, node := range nodes {
			n.nodes[node].srcQ = uint32(at + i)
		}
	}
	for _, rt := range n.Routers {
		l.alignLine()
		nodes := n.Topo.RouterNodes(rt.ID)
		_, at := carve(&l, a.i64, len(nodes))
		for i, node := range nodes {
			n.nodes[node].linkFree = uint32(at + i)
		}
	}
	for _, rt := range n.Routers {
		l.alignLine()
		nodes := n.Topo.RouterNodes(rt.ID)
		_, at := carve(&l, a.w32, len(nodes)*rt.nv)
		rt.nodeCreditsAt = uint32(at)
		for i, node := range nodes {
			n.nodes[node].credits = uint32(at + i*rt.nv)
		}
	}
	l.alignLine()
	return l.off
}

// NewNetwork builds the simulator state for a topology.
func NewNetwork(t topo.Topology, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkRanges(t, cfg); err != nil {
		return nil, err
	}
	g := t.Graph()
	n := &Network{
		Topo:           t,
		Cfg:            cfg,
		Routers:        make([]*Router, g.N()),
		nodes:          make([]nodeLoc, t.Nodes()),
		nodeRouterPort: make([]int16, t.Nodes()),
	}
	routers := make([]Router, g.N())
	for r := range routers {
		rt := &routers[r]
		*rt = Router{
			ID:       r,
			net:      n,
			netPorts: g.Degree(r),
			nPorts:   g.Degree(r) + len(t.RouterNodes(r)),
			nv:       cfg.NumVCs,
		}
		n.Routers[r] = rt
	}
	size := n.carve(&blockArena{})
	if uint64(size)/4 > math.MaxUint32 {
		return nil, fmt.Errorf("sim: %d bytes of router state exceed what credit references address", size)
	}
	n.mem = newBlockArena(size)
	n.carve(&n.mem)
	for _, rt := range n.Routers {
		for i := range rt.credits {
			rt.credits[i] = int32(cfg.InputBufFlits)
			rt.inQ[i].head.ready = neverReady
			rt.outQ[i].head.ready = neverReady
		}
		for p, nb := range g.Neighbors(rt.ID) {
			rt.neighbor[p] = int32(nb)
		}
		for i, node := range t.RouterNodes(rt.ID) {
			n.nodeRouterPort[node] = int16(rt.netPorts + i)
			loc := &n.nodes[node]
			loc.router = int32(rt.ID)
			n.mem.q[loc.srcQ].head.ready = neverReady
			for vc := 0; vc < cfg.NumVCs; vc++ {
				n.mem.w32[int(loc.credits)+vc] = int32(cfg.InputBufFlits)
			}
		}
		for p := range rt.inWake {
			rt.inWake[p], rt.outWake[p] = neverReady, neverReady
		}
	}
	// Second pass: precompute the reverse port of every link, replacing
	// the per-hop map lookup the stages used to do.
	for _, rt := range n.Routers {
		for p, nb := range rt.neighbor {
			back := n.Routers[nb].portTo(rt.ID)
			if back < 0 {
				return nil, fmt.Errorf("sim: asymmetric adjacency %d->%d", rt.ID, nb)
			}
			rt.revPort[p] = int16(back)
		}
	}
	n.acts = []*actSet{newActSet(g.N(), t.Nodes())}
	for _, rt := range n.Routers {
		rt.acts = n.acts[0]
	}
	return n, nil
}

// actSet groups the wake state one engine shard owns: bit r of in is
// set iff router r (owned by this shard) holds input-buffered packets,
// out likewise for output buffers, bit n of node iff node n holds
// source-queue or retransmission work, and srcBusy counts owned nodes
// with nonempty source queues (the O(1) drained() check). The bitsets
// span the whole network — only the owned components' bits are ever
// set, and wasting a few idle words per shard keeps component IDs
// global. rings is the overflow storage of the shard's queues (see
// packet.go): only the owner pushes, so only the owner grows it.
type actSet struct {
	in      bitset
	out     bitset
	node    bitset
	srcBusy int
	rings   ringArena
}

func newActSet(routers, nodes int) *actSet {
	return &actSet{in: newBitset(routers), out: newBitset(routers), node: newBitset(nodes)}
}

// partitionShards regroups the network's active sets into one group
// per shard, with part[r] naming router r's shard; nodes follow their
// router. It must be called before any traffic enters the network (the
// bitsets start empty and are not migrated). A one-shard engine without
// an explicit cut skips this and keeps the single group NewNetwork built.
func (n *Network) partitionShards(part []int, shards int) error {
	if len(part) != len(n.Routers) {
		return fmt.Errorf("sim: partition maps %d routers, network has %d", len(part), len(n.Routers))
	}
	acts := make([]*actSet, shards)
	for s := range acts {
		acts[s] = newActSet(len(n.Routers), len(n.nodes))
	}
	seen := make([]bool, shards)
	for r, p := range part {
		if p < 0 || p >= shards {
			return fmt.Errorf("sim: router %d assigned to shard %d of %d", r, p, shards)
		}
		n.Routers[r].acts = acts[p]
		n.Routers[r].part = p
		seen[p] = true
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("sim: shard %d owns no routers", s)
		}
	}
	n.acts = acts
	return nil
}

// srcBusyTotal sums the busy-source counters across shards.
func (n *Network) srcBusyTotal() int {
	total := 0
	for _, a := range n.acts {
		total += a.srcBusy
	}
	return total
}

// Network returns the network this router belongs to (used by
// global-knowledge routing variants to inspect remote routers).
func (r *Router) Network() *Network { return r.net }

// portTo returns the network port of this router that leads to the
// neighboring router next, -1 if they are not adjacent: an
// allocation-free binary search over the neighbor list (graph
// adjacency is kept sorted).
func (r *Router) portTo(next int) int {
	lo, hi := 0, len(r.neighbor)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r.neighbor[mid]) < next {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.neighbor) && int(r.neighbor[lo]) == next {
		return lo
	}
	return -1
}

// NeighborAt returns the router on the other end of a network port.
func (r *Router) NeighborAt(port int) int { return int(r.neighbor[port]) }

// NetPorts returns the number of network (router-to-router) ports.
func (r *Router) NetPorts() int { return r.netPorts }

// OutOccupancy returns the congestion signal adaptive routing reads
// for a port ("the occupancy of the first output port of the path"):
// the reserved output-buffer occupancy plus the virtual-output-queue
// load — flits in this router's input buffers already routed toward
// the port.
func (r *Router) OutOccupancy(port int) int { return int(r.occSum[port]) }

// OutBufferOccupancy returns only the output-buffer part of the
// signal (exposed for analysis and ablations).
func (r *Router) OutBufferOccupancy(port int) int {
	s := 0
	for _, occ := range r.outOcc[port*r.nv : (port+1)*r.nv] {
		s += int(occ)
	}
	return s
}

// terminalPortFor returns the output port of the destination node's
// router that ejects to that node.
func (n *Network) terminalPortFor(node int) int { return int(n.nodeRouterPort[node]) }

func (r *Router) idx(port, vc int) int { return port*r.nv + vc }

// isTerminal reports whether a port is a terminal (node) port.
func (r *Router) isTerminal(port int) bool { return port >= r.netPorts }

// Queue-mutation wrappers. All input/output buffer pushes and pops go
// through these so the packet counters, the ports' wake cycles and the
// network-level active sets stay consistent by construction — a router
// is in actIn/actOut exactly while it holds buffered packets, and a
// port's wake cycle never lies beyond its newest arrival: the wake-list
// invariant the active-set engine relies on (DESIGN.md §10). This
// includes the fault injector's drop paths.

// enqueueIn buffers a packet at an input (port, vc) and wakes the
// router and the port for switch allocation.
func (r *Router) enqueueIn(port, vc int, ent entry) {
	r.inQ[port*r.nv+vc].push(&r.acts.rings, ent)
	if ent.ready < r.inWake[port] {
		r.inWake[port] = ent.ready
	}
	r.inCount++
	r.acts.in.set(r.ID)
	if r.net.tel != nil {
		r.net.tel.VCEnqueue(r.ID, vc)
	}
}

// takeIn removes the i-th packet of an input (port, vc) queue,
// retiring the router from the input active set if it was the last.
func (r *Router) takeIn(port, vc, i int) entry {
	ent := r.inQ[port*r.nv+vc].removeAt(&r.acts.rings, i)
	if r.inCount--; r.inCount == 0 {
		r.acts.in.clear(r.ID)
	}
	if r.net.tel != nil {
		r.net.tel.VCDequeue(r.ID, vc)
	}
	return ent
}

// enqueueOut buffers a packet at an output (port, vc) and wakes the
// router and the port for link traversal.
func (r *Router) enqueueOut(port, vc int, ent entry) {
	r.outQ[port*r.nv+vc].push(&r.acts.rings, ent)
	if ent.ready < r.outWake[port] {
		r.outWake[port] = ent.ready
	}
	r.outCount++
	r.acts.out.set(r.ID)
}

// dequeueOut pops the head packet of an output (port, vc) queue,
// retiring the router from the output active set if it was the last.
func (r *Router) dequeueOut(port, vc int) entry {
	ent := r.outQ[port*r.nv+vc].pop(&r.acts.rings)
	if r.outCount--; r.outCount == 0 {
		r.acts.out.clear(r.ID)
	}
	return ent
}

// pushSrc appends a freshly generated packet to a node's source queue
// and wakes the node for injection. a is the active-set group of the
// shard owning the node — the calling engine's own.
func (n *Network) pushSrc(a *actSet, node int, h pktHandle) {
	q := &n.mem.q[n.nodes[node].srcQ]
	if q.empty() {
		a.srcBusy++
	}
	q.push(&a.rings, entry{h: h})
	a.node.set(node)
}

// popSrc removes the head of a node's source queue, putting the node
// to sleep if it has no remaining injection work.
func (n *Network) popSrc(a *actSet, node int) {
	q := &n.mem.q[n.nodes[node].srcQ]
	q.pop(&a.rings)
	if q.empty() {
		a.srcBusy--
		if n.retxQ == nil || len(n.retxQ[node]) == 0 {
			a.node.clear(node)
		}
	}
}
