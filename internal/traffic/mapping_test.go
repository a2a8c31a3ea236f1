package traffic

import (
	"math/rand"
	"testing"
)

func TestNewMappingValidation(t *testing.T) {
	if _, err := NewMapping("bad", []int{0, 0, 1}); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := NewMapping("bad", []int{0, 3}); err == nil {
		t.Error("out-of-range node accepted")
	}
	m, err := NewMapping("ok", []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.RankOfNode[2] != 0 || m.RankOfNode[0] != 1 {
		t.Error("inverse mapping wrong")
	}
}

func TestContiguousMapping(t *testing.T) {
	m := ContiguousMapping(5)
	for i := 0; i < 5; i++ {
		if m.NodeOfRank[i] != i || m.RankOfNode[i] != i {
			t.Fatal("contiguous mapping is not the identity")
		}
	}
}

func TestRandomMappingIsPermutation(t *testing.T) {
	m := RandomMapping(40, rand.New(rand.NewSource(5)))
	seen := map[int]bool{}
	for _, n := range m.NodeOfRank {
		if seen[n] {
			t.Fatal("random mapping repeats a node")
		}
		seen[n] = true
	}
	if len(seen) != 40 {
		t.Fatal("random mapping incomplete")
	}
}

func TestMappingApply(t *testing.T) {
	// Rank exchange: rank 0 -> rank 1 (3 packets), rank 1 -> rank 2.
	ex := NewExchange("x", [][]Message{
		{{Dst: 1, Packets: 3}},
		{{Dst: 2, Packets: 1}},
		{},
	}, false)
	m, err := NewMapping("swap", []int{2, 1, 0}) // rank 0 on node 2, rank 2 on node 0
	if err != nil {
		t.Fatal(err)
	}
	mapped := m.Apply(ex)
	if mapped.TotalPackets() != 4 {
		t.Fatalf("TotalPackets = %d", mapped.TotalPackets())
	}
	// Node 2 (rank 0) sends 3 packets to node 1 (rank 1).
	d, ok := mapped.NextPacket(2, 0, nil)
	if !ok || d != 1 {
		t.Errorf("node 2 first packet -> %d, want 1", d)
	}
	// Node 1 (rank 1) sends to node 0 (rank 2).
	d, ok = mapped.NextPacket(1, 0, nil)
	if !ok || d != 0 {
		t.Errorf("node 1 first packet -> %d, want 0", d)
	}
	// Node 0 (rank 2) has nothing.
	if _, ok := mapped.NextPacket(0, 0, nil); ok {
		t.Error("node 0 should be idle")
	}
	// The source exchange must be untouched.
	if ex.TotalPackets() != 4 || ex.Done() {
		t.Error("Apply mutated the source exchange")
	}
}
