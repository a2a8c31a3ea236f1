package traffic

import (
	"fmt"
	"math/rand"

	"diam2/internal/sim"
)

// StepMessage is one transfer within a collective step.
type StepMessage struct {
	Dst     int
	Packets int
}

// Collective is a dependency-driven workload modeling an MPI-style
// collective operation: communication proceeds in steps, and a node
// may only inject its step-s messages after every message addressed
// to it from steps < s has been delivered (data dependencies). The
// engine reports deliveries through the sim.DeliveryObserver hook.
type Collective struct {
	label string
	steps [][][]StepMessage // [node][step] -> messages

	// cumExpected[node][s] counts packets node must have received
	// before starting step s (sum over steps < s of packets addressed
	// to it).
	cumExpected [][]int64
	received    []int64
	curStep     []int
	pending     []int // packets left in the current message
	curMsg      []int // index within the current step's message list
	left        int64
	total       int64
}

// NewCollective validates a per-node, per-step schedule for n nodes.
func NewCollective(label string, n int, steps [][][]StepMessage) (*Collective, error) {
	if len(steps) != n {
		return nil, fmt.Errorf("traffic: schedule covers %d of %d nodes", len(steps), n)
	}
	maxSteps := 0
	for _, s := range steps {
		if len(s) > maxSteps {
			maxSteps = len(s)
		}
	}
	c := &Collective{
		label:       label,
		steps:       steps,
		cumExpected: make([][]int64, n),
		received:    make([]int64, n),
		curStep:     make([]int, n),
		pending:     make([]int, n),
		curMsg:      make([]int, n),
	}
	// Packets addressed to each node per step.
	incoming := make([][]int64, n)
	for i := range incoming {
		incoming[i] = make([]int64, maxSteps)
	}
	for src, perStep := range steps {
		for s, msgs := range perStep {
			for _, m := range msgs {
				switch {
				case m.Dst < 0 || m.Dst >= n:
					return nil, fmt.Errorf("traffic: node %d step %d: destination %d out of range", src, s, m.Dst)
				case m.Dst == src:
					return nil, fmt.Errorf("traffic: node %d step %d: self-message", src, s)
				case m.Packets < 1:
					return nil, fmt.Errorf("traffic: node %d step %d: %d packets", src, s, m.Packets)
				}
				incoming[m.Dst][s] += int64(m.Packets)
				c.left += int64(m.Packets)
			}
		}
	}
	c.total = c.left
	for i := range incoming {
		cum := make([]int64, maxSteps+1)
		for s := 0; s < maxSteps; s++ {
			cum[s+1] = cum[s] + incoming[i][s]
		}
		c.cumExpected[i] = cum
	}
	return c, nil
}

// Name implements sim.Workload.
func (c *Collective) Name() string { return c.label }

// TotalPackets returns the schedule volume.
func (c *Collective) TotalPackets() int64 { return c.total }

// Done implements sim.Workload.
func (c *Collective) Done() bool { return c.left == 0 }

// OnDeliver implements sim.DeliveryObserver.
func (c *Collective) OnDeliver(p *sim.Packet, _ int64) {
	if p.Dst >= 0 && int(p.Dst) < len(c.received) {
		c.received[p.Dst]++
	}
}

// NextPacket implements sim.Workload: the node drains its current
// step's messages, advancing to the next step only once its data
// dependencies are met.
func (c *Collective) NextPacket(src int, _ int64, _ *rand.Rand) (int, bool) {
	if src >= len(c.steps) {
		return 0, false // machine larger than the collective's communicator
	}
	steps := c.steps[src]
	for {
		s := c.curStep[src]
		if s >= len(steps) {
			return 0, false
		}
		// Gate: everything addressed to src from steps < s delivered?
		if c.received[src] < c.cumExpected[src][s] {
			return 0, false
		}
		msgs := steps[s]
		mi := c.curMsg[src]
		if mi >= len(msgs) {
			// Step's sends finished; move on (the gate for s+1 is
			// checked on the next loop iteration).
			c.curStep[src]++
			c.curMsg[src] = 0
			c.pending[src] = 0
			continue
		}
		if c.pending[src] == 0 {
			c.pending[src] = msgs[mi].Packets
		}
		c.pending[src]--
		c.left--
		if c.pending[src] == 0 {
			c.curMsg[src]++
		}
		return msgs[mi].Dst, true
	}
}

// RingAllGather builds the ring all-gather schedule: in each of n-1
// steps, node i forwards the chunk it most recently received to
// (i+1) mod n. Bandwidth-optimal, latency O(n).
func RingAllGather(n, packetsPerChunk int) (*Collective, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: ring all-gather needs n >= 2")
	}
	steps := make([][][]StepMessage, n)
	for i := 0; i < n; i++ {
		perStep := make([][]StepMessage, n-1)
		for s := 0; s < n-1; s++ {
			perStep[s] = []StepMessage{{Dst: (i + 1) % n, Packets: packetsPerChunk}}
		}
		steps[i] = perStep
	}
	return NewCollective(fmt.Sprintf("ring-allgather(%d)", n), n, steps)
}

// RecursiveDoublingAllGather builds the recursive-doubling all-gather
// for power-of-two n: log2(n) steps; in step s each node exchanges
// its accumulated 2^s chunks with partner i XOR 2^s. Latency-optimal,
// same total volume as the ring.
func RecursiveDoublingAllGather(n, packetsPerChunk int) (*Collective, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: recursive doubling needs a power-of-two size, got %d", n)
	}
	var nSteps int
	for 1<<nSteps < n {
		nSteps++
	}
	steps := make([][][]StepMessage, n)
	for i := 0; i < n; i++ {
		perStep := make([][]StepMessage, nSteps)
		for s := 0; s < nSteps; s++ {
			perStep[s] = []StepMessage{{Dst: i ^ (1 << s), Packets: packetsPerChunk << s}}
		}
		steps[i] = perStep
	}
	return NewCollective(fmt.Sprintf("rd-allgather(%d)", n), n, steps)
}

// BinomialBroadcast builds the binomial-tree broadcast from a root:
// in step s, every node that already holds the data and whose rank
// (relative to the root) has exactly s trailing role bits sends to
// rank + 2^s... concretely, relative rank r < 2^s sends to r + 2^s.
func BinomialBroadcast(n, root, packets int) (*Collective, error) {
	if n < 2 || root < 0 || root >= n {
		return nil, fmt.Errorf("traffic: bad broadcast parameters n=%d root=%d", n, root)
	}
	var nSteps int
	for 1<<nSteps < n {
		nSteps++
	}
	steps := make([][][]StepMessage, n)
	for i := range steps {
		steps[i] = make([][]StepMessage, nSteps)
	}
	for s := 0; s < nSteps; s++ {
		for rel := 0; rel < 1<<s; rel++ {
			dst := rel + 1<<s
			if dst >= n {
				continue
			}
			src := (root + rel) % n
			steps[src][s] = append(steps[src][s], StepMessage{Dst: (root + dst) % n, Packets: packets})
		}
	}
	return NewCollective(fmt.Sprintf("bcast(%d,root=%d)", n, root), n, steps)
}

// RingAllReduce builds the ring all-reduce: a reduce-scatter followed
// by an all-gather, 2*(n-1) steps each moving size/n of the data (one
// chunk of packetsPerChunk packets) to the next ring neighbor.
func RingAllReduce(n, packetsPerChunk int) (*Collective, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: ring all-reduce needs n >= 2")
	}
	steps := make([][][]StepMessage, n)
	for i := 0; i < n; i++ {
		perStep := make([][]StepMessage, 2*(n-1))
		for s := range perStep {
			perStep[s] = []StepMessage{{Dst: (i + 1) % n, Packets: packetsPerChunk}}
		}
		steps[i] = perStep
	}
	return NewCollective(fmt.Sprintf("ring-allreduce(%d)", n), n, steps)
}
