package traffic

import (
	"fmt"
	"math/rand"
)

// Mapping is a bijection from application process ranks to machine
// nodes. The paper uses the contiguous mapping (rank == node, with
// node IDs ordered along the topology's morphology); alternative
// mappings quantify how much of an exchange's performance comes from
// placement.
type Mapping struct {
	Label      string
	NodeOfRank []int
	RankOfNode []int
}

// NewMapping validates and completes a rank->node assignment.
func NewMapping(label string, nodeOfRank []int) (*Mapping, error) {
	n := len(nodeOfRank)
	m := &Mapping{Label: label, NodeOfRank: nodeOfRank, RankOfNode: make([]int, n)}
	seen := make([]bool, n)
	for rank, node := range nodeOfRank {
		if node < 0 || node >= n {
			return nil, fmt.Errorf("traffic: mapping %s: node %d out of range", label, node)
		}
		if seen[node] {
			return nil, fmt.Errorf("traffic: mapping %s: node %d assigned twice", label, node)
		}
		seen[node] = true
		m.RankOfNode[node] = rank
	}
	return m, nil
}

// ContiguousMapping is the paper's mapping: rank i on node i.
func ContiguousMapping(n int) *Mapping {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	m, _ := NewMapping("contiguous", ids)
	return m
}

// RandomMapping scatters ranks uniformly over nodes.
func RandomMapping(n int, rng *rand.Rand) *Mapping {
	m, _ := NewMapping("random", rng.Perm(n))
	return m
}

// Apply rewrites a fresh exchange's message lists under the mapping:
// in the returned exchange, node m.NodeOfRank[i] sends what rank i
// sends, to the nodes holding the destination ranks. The input
// exchange (whose Dst fields are interpreted as ranks) is left
// untouched.
func (m *Mapping) Apply(e *Exchange) *Exchange {
	n := len(m.NodeOfRank)
	msgs := make([][]Message, n)
	for rank := 0; rank < n && rank < len(e.msgs); rank++ {
		src := m.NodeOfRank[rank]
		var list []Message
		for _, msg := range e.msgs[rank] {
			list = append(list, Message{Dst: m.NodeOfRank[msg.Dst], Packets: msg.Packets})
		}
		msgs[src] = list
	}
	return NewExchange(e.Label+"@"+m.Label, msgs, e.Interleaved())
}
