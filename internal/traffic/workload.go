package traffic

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// OpenLoop adapts a Pattern into an open-loop Bernoulli workload: at
// every cycle each node generates a packet with probability
// Load / PacketFlits, so the offered load is Load (as a fraction of
// the injection bandwidth).
type OpenLoop struct {
	Pattern     Pattern
	Load        float64
	PacketFlits int
}

// Name implements sim.Workload.
func (o *OpenLoop) Name() string { return fmt.Sprintf("%s@%.2f", o.Pattern.Name(), o.Load) }

// NextPacket implements sim.Workload.
func (o *OpenLoop) NextPacket(src int, _ int64, rng *rand.Rand) (int, bool) {
	if rng.Float64() >= o.Load/float64(o.PacketFlits) {
		return 0, false
	}
	return o.Pattern.Dest(src, rng), true
}

// Done implements sim.Workload (open-loop runs never finish).
func (o *OpenLoop) Done() bool { return false }

// ParallelSafe marks the workload safe for sharded engines
// (sim.ParallelSafeWorkload): NextPacket reads only immutable pattern
// state and the caller's rng.
func (o *OpenLoop) ParallelSafe() {}

// Message is a fixed-size transfer to one destination.
type Message struct {
	Dst     int
	Packets int
}

// Exchange is a closed-loop workload: each node owns an ordered list
// of messages. Injection either drains messages sequentially (the
// all-to-all shifted order) or round-robins across them
// (nearest-neighbor style). Nodes beyond the lists inject nothing.
type Exchange struct {
	Label      string
	interleave bool

	msgs [][]Message
	// A node's live messages (packets left) form a cyclic successor
	// list over flat indices into dst/rem/next, in list order. tail[n]
	// is the predecessor of the message node n sends from next, or -1
	// once it has sent everything. A message is unlinked when its last
	// packet goes, so a poll costs O(1).
	dst, rem, next []int32
	tail           []int32
	// left counts packets still to inject across all nodes. Sharded
	// engines call NextPacket concurrently from different source nodes,
	// so the counter is atomic; all other mutable state is per-source
	// and each source belongs to exactly one shard.
	left  atomic.Int64
	total int64
}

// NewExchange builds an exchange from per-node message lists
// (msgs[n] are node n's messages). Interleaved exchanges round-robin
// across a node's messages; the others drain them in order.
func NewExchange(label string, msgs [][]Message, interleave bool) *Exchange {
	e := &Exchange{Label: label, interleave: interleave, msgs: msgs, tail: make([]int32, len(msgs))}
	size := 0
	for _, list := range msgs {
		size += len(list)
	}
	e.dst, e.rem, e.next = make([]int32, 0, size), make([]int32, 0, size), make([]int32, 0, size)
	for n, list := range msgs {
		lo := int32(len(e.dst))
		for _, m := range list {
			e.total += int64(m.Packets)
			if m.Packets > 0 {
				e.dst = append(e.dst, int32(m.Dst))
				e.rem = append(e.rem, int32(m.Packets))
				e.next = append(e.next, int32(len(e.next)+1))
			}
		}
		e.tail[n] = -1
		if hi := int32(len(e.dst)); hi > lo {
			e.next[hi-1], e.tail[n] = lo, hi-1
		}
	}
	e.left.Store(e.total)
	return e
}

// Name implements sim.Workload.
func (e *Exchange) Name() string { return e.Label }

// Interleaved reports whether nodes round-robin across their messages.
func (e *Exchange) Interleaved() bool { return e.interleave }

// TotalPackets returns the exchange volume in packets.
func (e *Exchange) TotalPackets() int64 { return e.total }

// CheckNodes reports an error unless every node list and destination
// lies within a machine of n nodes.
func (e *Exchange) CheckNodes(n int) error {
	for src, list := range e.msgs {
		for _, m := range list {
			if src >= n || m.Dst < 0 || m.Dst >= n {
				return fmt.Errorf("traffic: exchange %s: message %d -> %d outside %d nodes", e.Label, src, m.Dst, n)
			}
		}
	}
	return nil
}

// NextPacket implements sim.Workload.
func (e *Exchange) NextPacket(src int, _ int64, _ *rand.Rand) (int, bool) {
	if src >= len(e.tail) || e.tail[src] < 0 {
		return 0, false
	}
	t := e.tail[src]
	i := e.next[t]
	e.left.Add(-1)
	switch e.rem[i]--; {
	case e.rem[i] > 0:
		if e.interleave {
			e.tail[src] = i
		}
	case i == t:
		e.tail[src] = -1
	default:
		e.next[t] = e.next[i]
	}
	return int(e.dst[i]), true
}

// Done implements sim.Workload.
func (e *Exchange) Done() bool { return e.left.Load() == 0 }

// ParallelSafe marks the workload safe for sharded engines
// (sim.ParallelSafeWorkload); see the left field.
func (e *Exchange) ParallelSafe() {}

// AllToAll builds the A2A exchange of Section 4.4: every node sends
// packetsPerPair packets to every other node. Following the optimized
// exchange of Kumar et al. (Blue Gene/Q), each node sprays packets
// round-robin over all destinations (interleaved draining), so the
// instantaneous traffic resembles uniform random traffic instead of a
// sequence of hot single-path permutation phases; with an rng, each
// node additionally starts from an independently shuffled
// destination order. Pass a nil rng for the deterministic shifted
// order (kept for ablation; it is still interleaved).
func AllToAll(n, packetsPerPair int, rng *rand.Rand) *Exchange {
	label := "A2A"
	if rng == nil {
		label = "A2A-shifted"
	}
	return NewExchange(label, allToAllLists(n, packetsPerPair, rng), true)
}

// AllToAllSequential is the naive synchronized variant: every node
// drains one full message after another in shifted order. It is kept
// as an ablation baseline — on the SSPTs the aligned phases form
// single-minimal-path permutations and throughput collapses relative
// to the sprayed exchange.
func AllToAllSequential(n, packetsPerPair int) *Exchange {
	return NewExchange("A2A-seq", allToAllLists(n, packetsPerPair, nil), false)
}

// allToAllLists gives node i the shifted destination order i+1, i+2,
// ... (mod n), shuffled per node when rng is non-nil.
func allToAllLists(n, packetsPerPair int, rng *rand.Rand) [][]Message {
	msgs := make([][]Message, n)
	for i := 0; i < n; i++ {
		list := make([]Message, 0, n-1)
		for ph := 1; ph < n; ph++ {
			list = append(list, Message{Dst: (i + ph) % n, Packets: packetsPerPair})
		}
		if rng != nil {
			rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
		}
		msgs[i] = list
	}
	return msgs
}
