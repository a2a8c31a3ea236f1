package sim

import (
	"math/bits"
	"slices"
)

// Packet is the unit of routing; it serializes as Flits flits. It is
// 64 bytes — one cache line of the slab — and the engine loads it once
// per hop, when the hop is routed: the grant and the link traversal
// work from the queue entry alone. NewNetwork's range checks cover the
// narrow fields.
type Packet struct {
	ID int64

	GenTime    int64 // cycle the packet entered the source queue
	InjectTime int64 // cycle the packet started onto the terminal link
	FirstDrop  int64 // fault injection: cycle of the first drop (valid when Retx > 0)

	Src, Dst  int32 // end-node IDs
	SrcRouter int32
	DstRouter int32

	// Routing state, owned by the routing algorithm.
	Intermediate int32 // intermediate router for indirect routes, else -1
	Flits        int32 // always the engine's packet size (CheckInvariants)
	Hops         int16 // router-to-router hops taken, counted as each is routed
	Retx         int16 // fault injection: times this packet was dropped by a link failure
	Minimal      bool  // true: minimal route; false: indirect (Valiant)
	PhaseTwo     bool  // indirect routes: intermediate already reached
}

// pktHandle addresses a live Packet inside an engine's slab. Handles
// are engine-local: in a sharded run every handle stored in a shard's
// queues, rings or mailboxes indexes that shard's own slab, and a
// packet crossing a shard cut travels by value (the producer releases
// its handle, the consumer allocates a fresh one). Ownership rules:
// DESIGN.md §15.
type pktHandle int32

// pktSlab is a dense arena of Packet structs addressed by pktHandle.
// Replacing the old *Packet freelist with index handles removes every
// pointer from the per-cycle data structures (queue entries, event
// rings, mailboxes are all integer-only), so the GC never scans the
// simulation state and the hot stages chase one dense array instead of
// scattered heap objects.
//
// Growth contract: alloc may grow the arena and relocate it, so a
// *Packet obtained from at() must not be held across an alloc call.
// The engine stages respect this by resolving handles immediately
// before use and never allocating while a resolved pointer is live.
type pktSlab struct {
	arena []Packet
	free  []pktHandle
}

// alloc returns a handle to a zeroed Packet, recycling a released slot
// when the freelist has stock. The steady-state hot path allocates
// nothing once the arena is warm.
func (s *pktSlab) alloc() pktHandle {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		s.arena[h] = Packet{}
		return h
	}
	s.arena = append(s.arena, Packet{})
	return pktHandle(len(s.arena) - 1)
}

// at resolves a handle; the pointer is valid only until the next alloc.
func (s *pktSlab) at(h pktHandle) *Packet { return &s.arena[h] }

// release returns a slot to the freelist. Callers must not use the
// handle afterwards.
func (s *pktSlab) release(h pktHandle) { s.free = append(s.free, h) }

// live returns the number of slots currently allocated out of the
// arena (used by the invariant sweep and the recycling tests).
func (s *pktSlab) live() int { return len(s.arena) - len(s.free) }

// pkt resolves a handle against this shard's slab (the common,
// shard-local case; see slabFor for the fault injector's cross-shard
// resolution at barriers).
func (sh *shard) pkt(h pktHandle) *Packet { return sh.slab.at(h) }

// slabFor returns the slab owning the entries resident at router r:
// the slab of the shard that owns r. The fault injector, which runs on
// shard 0 at the cycle barrier while every other worker is parked,
// uses it to resolve and release handles held by routers other shards
// own.
func (sh *shard) slabFor(r *Router) *pktSlab { return &sh.eng.shards[r.part].slab }

// neverReady is the ready cycle of an empty queue's head slot: polls
// compare head.ready against the clock, so an empty queue reads as
// "not yet" without a separate emptiness test.
const neverReady = int64(1<<63 - 1)

// entry is one packet resident in (or traversing toward) a buffer.
// It is 16 bytes and pointer-free: the packet lives in the engine's
// slab, and the cached switch-allocation decision is packed into two
// int16 fields (NewNetwork rejects port and VC counts beyond them).
type entry struct {
	ready int64     // cycle the head flit is present in this buffer
	h     pktHandle // slab handle of the resident packet
	// Cached routing decision (switch allocation stage): a port once
	// routed, else one of the two sentinels below.
	outPort int16
	outVC   int16
}

// A network hop is counted when the arriving entry is first routed.
// Fault recovery forgets routes (rebuildTables) but not hops, so an
// entry it sends back for routing says so.
const (
	unrouted = -1 // fresh arrival: count the hop, then route
	rerouted = -2 // route forgotten after a table rebuild: hop already counted
)

// queue is a FIFO of buffer entries, 32 bytes so that two share a cache
// line inside the router's block. The oldest entry is stored inline:
// polling an empty, not-yet-ready or blocked queue — by far the most
// common visit — reads head and nothing else. Entries behind it
// overflow into a power-of-two ring carved from the owning shard's
// ringArena; the ring appears on the second push, doubles when full and
// is kept when the queue drains, so a queue's storage settles at the
// depth it actually reaches rather than at its credit capacity.
type queue struct {
	head  entry // oldest entry; head.ready == neverReady when empty
	n     int32 // entries queued, head included
	start int32 // ring position of the entry behind head
	off   int32 // ring's offset in the ringArena (meaningful when cap > 0)
	cap   int32 // ring capacity: 0 or a power of two
}

// ringArena is the overflow storage of one shard's queues: regions of
// 2^k entries handed out from one growing slice, recycled through
// per-size free lists threaded through the freed regions themselves.
// Only the owning shard pushes (and so allocates); growing relocates
// mem, so an *entry into it must not be held across a push.
type ringArena struct {
	mem  []entry
	free [31]int32 // per log2(size): offset+1 of the first free region, 0 if none
}

const minRing = 4 // entries in a queue's first ring

func (a *ringArena) alloc(size int32) int32 {
	k := bits.TrailingZeros32(uint32(size))
	if f := a.free[k]; f != 0 {
		a.free[k] = int32(a.mem[f-1].h) // next link, stored in the region's first slot
		return f - 1
	}
	off := len(a.mem)
	a.mem = slices.Grow(a.mem, int(size))[:off+int(size)]
	return int32(off)
}

func (a *ringArena) release(off, size int32) {
	k := bits.TrailingZeros32(uint32(size))
	a.mem[off].h = pktHandle(a.free[k])
	a.free[k] = off + 1
}

func (q *queue) empty() bool { return q.n == 0 }

func (q *queue) len() int { return int(q.n) }

// slot returns the arena index of the i-th overflow entry (i >= 0).
func (q *queue) slot(i int32) int32 { return q.off + (q.start+i)&(q.cap-1) }

func (q *queue) push(a *ringArena, e entry) {
	if q.n == 0 {
		q.head = e
		q.n = 1
		return
	}
	over := q.n - 1
	if over == q.cap {
		q.grow(a)
	}
	a.mem[q.slot(over)] = e
	q.n++
}

// grow moves the overflow entries into a ring of twice the capacity and
// recycles the old one.
func (q *queue) grow(a *ringArena) {
	size := 2 * q.cap
	if size == 0 {
		size = minRing
	}
	off := a.alloc(size)
	for i := int32(0); i < q.cap; i++ {
		a.mem[off+i] = a.mem[q.slot(i)]
	}
	if q.cap > 0 {
		a.release(q.off, q.cap)
	}
	q.off, q.cap, q.start = off, size, 0
}

func (q *queue) pop(a *ringArena) entry {
	e := q.head
	if q.n--; q.n == 0 {
		q.head = entry{ready: neverReady}
		return e
	}
	q.head = a.mem[q.slot(0)]
	q.start = (q.start + 1) & (q.cap - 1)
	return e
}

// at returns a pointer to the i-th entry from the front (0 = head);
// call only when i < len().
func (q *queue) at(a *ringArena, i int) *entry {
	if i == 0 {
		return &q.head
	}
	return &a.mem[q.slot(int32(i-1))]
}

// removeAt removes and returns the i-th entry from the front,
// preserving the order of the rest. removeAt(0) == pop().
func (q *queue) removeAt(a *ringArena, i int) entry {
	if i == 0 {
		return q.pop(a)
	}
	// Close the gap from the front: the window bounds i, the queue's
	// depth does not bound what lies behind it.
	e := a.mem[q.slot(int32(i-1))]
	for j := int32(i - 1); j > 0; j-- {
		a.mem[q.slot(j)] = a.mem[q.slot(j-1)]
	}
	q.start = (q.start + 1) & (q.cap - 1)
	q.n--
	return e
}
