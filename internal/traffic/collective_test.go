package traffic

import (
	"testing"

	"diam2/internal/sim"
)

func TestCollectiveValidation(t *testing.T) {
	if _, err := NewCollective("bad", 2, [][][]StepMessage{{}}); err == nil {
		t.Error("wrong node count accepted")
	}
	if _, err := NewCollective("bad", 2, [][][]StepMessage{
		{{{Dst: 0, Packets: 1}}}, {},
	}); err == nil {
		t.Error("self-message accepted")
	}
	if _, err := NewCollective("bad", 2, [][][]StepMessage{
		{{{Dst: 5, Packets: 1}}}, {},
	}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := NewCollective("bad", 2, [][][]StepMessage{
		{{{Dst: 1, Packets: 0}}}, {},
	}); err == nil {
		t.Error("zero packets accepted")
	}
}

// drainCollective simulates the workload contract outside the engine:
// repeatedly poll nodes; deliveries are immediate.
func drainCollective(t *testing.T, c *Collective) int {
	t.Helper()
	n := len(c.steps)
	rounds := 0
	for !c.Done() {
		progressed := false
		// Poll in descending order so a delivery cannot cascade
		// through the whole ring within a single round — each round
		// then advances the pipeline by one step, making the round
		// count a meaningful depth measure.
		for src := n - 1; src >= 0; src-- {
			for {
				dst, ok := c.NextPacket(src, int64(rounds), nil)
				if !ok {
					break
				}
				c.OnDeliver(&sim.Packet{Dst: int32(dst)}, int64(rounds))
				progressed = true
			}
		}
		rounds++
		if !progressed {
			t.Fatalf("collective stuck after %d rounds with %d packets left", rounds, c.left)
		}
	}
	return rounds
}

func TestRingAllGatherDrains(t *testing.T) {
	c, err := RingAllGather(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalPackets() != 5*4*2 {
		t.Fatalf("TotalPackets = %d, want 40", c.TotalPackets())
	}
	rounds := drainCollective(t, c)
	// The ring is a pipeline: with instant delivery each round
	// releases one step, so it takes ~n-1 rounds.
	if rounds < 4 {
		t.Errorf("ring finished in %d rounds; dependencies not enforced", rounds)
	}
}

func TestRingAllGatherDependencyGate(t *testing.T) {
	c, err := RingAllGather(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Step 0 is ungated for all nodes.
	for i := 0; i < 4; i++ {
		if _, ok := c.NextPacket(i, 0, nil); !ok {
			t.Fatalf("node %d step 0 gated", i)
		}
	}
	// Step 1 must be gated until the step-0 chunk arrives.
	if _, ok := c.NextPacket(0, 0, nil); ok {
		t.Fatal("node 0 step 1 released without delivery")
	}
	c.OnDeliver(&sim.Packet{Dst: 0}, 0)
	if _, ok := c.NextPacket(0, 0, nil); !ok {
		t.Fatal("node 0 step 1 still gated after delivery")
	}
}

func TestRecursiveDoublingAllGather(t *testing.T) {
	c, err := RecursiveDoublingAllGather(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Volumes: steps send 1, 2, 4 chunks: per node 7, total 56.
	if c.TotalPackets() != 56 {
		t.Fatalf("TotalPackets = %d, want 56", c.TotalPackets())
	}
	rounds := drainCollective(t, c)
	if rounds < 3 {
		t.Errorf("recursive doubling finished in %d rounds, want >= log2(n)", rounds)
	}
	if _, err := RecursiveDoublingAllGather(6, 1); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestBinomialBroadcast(t *testing.T) {
	c, err := BinomialBroadcast(8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A broadcast reaches n-1 nodes once each.
	if c.TotalPackets() != 7*3 {
		t.Fatalf("TotalPackets = %d, want 21", c.TotalPackets())
	}
	drainCollective(t, c)
	// Non-zero root and non-power-of-two sizes work too.
	c2, err := BinomialBroadcast(6, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c2.TotalPackets() != 5 {
		t.Fatalf("n=6 TotalPackets = %d, want 5", c2.TotalPackets())
	}
	drainCollective(t, c2)
	if _, err := BinomialBroadcast(4, 9, 1); err == nil {
		t.Error("bad root accepted")
	}
}

func TestRingAllReduce(t *testing.T) {
	c, err := RingAllReduce(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalPackets() != 4*6*2 {
		t.Fatalf("TotalPackets = %d, want 48", c.TotalPackets())
	}
	drainCollective(t, c)
}
