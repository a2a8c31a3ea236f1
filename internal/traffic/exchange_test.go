package traffic

import (
	"math/rand"
	"slices"
	"testing"
)

// scanExchange is the reference Exchange: every poll rescans the
// node's message list for the first message with packets left, from
// the round-robin cursor when interleaved and from the front
// otherwise. Nodes beyond the lists inject nothing.
type scanExchange struct {
	interleave bool
	msgs       [][]Message
	remaining  [][]int
	rrMsg      []int
	left       int64
}

func newScanExchange(msgs [][]Message, interleave bool) *scanExchange {
	s := &scanExchange{interleave: interleave, msgs: msgs,
		remaining: make([][]int, len(msgs)), rrMsg: make([]int, len(msgs))}
	for n, list := range msgs {
		s.remaining[n] = make([]int, len(list))
		for i, m := range list {
			s.remaining[n][i] = m.Packets
			s.left += int64(m.Packets)
		}
	}
	return s
}

func (s *scanExchange) next(src int) (int, bool) {
	if src >= len(s.remaining) {
		return 0, false
	}
	rem := s.remaining[src]
	if len(rem) == 0 {
		return 0, false
	}
	if s.interleave {
		for trial := 0; trial < len(rem); trial++ {
			i := (s.rrMsg[src] + trial) % len(rem)
			if rem[i] > 0 {
				rem[i]--
				s.left--
				s.rrMsg[src] = (i + 1) % len(rem)
				return s.msgs[src][i].Dst, true
			}
		}
		return 0, false
	}
	for i, r := range rem {
		if r > 0 {
			rem[i]--
			s.left--
			return s.msgs[src][i].Dst, true
		}
	}
	return 0, false
}

// randomSchedule draws 0-40 node lists of 0-50 messages with 0-5
// packets each; about one list in five is empty.
func randomSchedule(rng *rand.Rand) [][]Message {
	msgs := make([][]Message, rng.Intn(41))
	for n := range msgs {
		if rng.Intn(5) == 0 {
			continue
		}
		list := make([]Message, rng.Intn(51))
		for i := range list {
			list[i] = Message{Dst: rng.Intn(len(msgs)), Packets: rng.Intn(6)}
		}
		msgs[n] = list
	}
	return msgs
}

// TestExchangeMatchesScan drives Exchange and the rescanning reference
// with the same seeded schedules and the same random poll order, well
// past exhaustion and on nodes beyond the lists: every (dst, ok) and
// every Done answer must agree.
func TestExchangeMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		msgs := randomSchedule(rng)
		interleave := seed%2 == 0
		ex, ref := NewExchange("diff", msgs, interleave), newScanExchange(msgs, interleave)
		if ex.TotalPackets() != ref.left {
			t.Fatalf("seed %d: TotalPackets %d, reference %d", seed, ex.TotalPackets(), ref.left)
		}
		polls := 2*int(ref.left) + 100
		for p := 0; p < polls; p++ {
			// A sweep over every node every tenth poll, so that all
			// lists drain and the tail polls exhausted ones.
			src := rng.Intn(len(msgs) + 3)
			if p%10 == 0 {
				src = (p / 10) % (len(msgs) + 3)
			}
			d, ok := ex.NextPacket(src, int64(p), nil)
			wd, wok := ref.next(src)
			if d != wd || ok != wok {
				t.Fatalf("seed %d interleave %v poll %d node %d: (%d, %v), reference (%d, %v)",
					seed, interleave, p, src, d, ok, wd, wok)
			}
			if ex.Done() != (ref.left == 0) {
				t.Fatalf("seed %d poll %d: Done %v with %d packets left", seed, p, ex.Done(), ref.left)
			}
		}
		for src := range msgs {
			for {
				d, ok := ex.NextPacket(src, 0, nil)
				wd, wok := ref.next(src)
				if d != wd || ok != wok {
					t.Fatalf("seed %d drain node %d: (%d, %v), reference (%d, %v)", seed, src, d, ok, wd, wok)
				}
				if !ok {
					break
				}
			}
		}
		if !ex.Done() || ref.left != 0 {
			t.Fatalf("seed %d: not done after draining every node", seed)
		}
	}
}

// TestExchangeNextPacketAllocs: a poll allocates nothing, live or
// exhausted.
func TestExchangeNextPacketAllocs(t *testing.T) {
	ex := AllToAll(30, 4, rand.New(rand.NewSource(1)))
	src := 0
	allocs := testing.AllocsPerRun(20000, func() {
		ex.NextPacket(src, 0, nil)
		src = (src + 1) % 32
	})
	if allocs != 0 {
		t.Errorf("NextPacket allocates %.1f per call, want 0", allocs)
	}
	if !ex.Done() {
		t.Error("20000 polls did not exhaust a 3480-packet exchange")
	}
}

// TestAllToAllModes: the sequential variant is built in its mode, not
// switched after construction, and a mapping keeps the mode.
func TestAllToAllModes(t *testing.T) {
	seq := AllToAllSequential(4, 2)
	if seq.Interleaved() || !AllToAll(4, 2, nil).Interleaved() {
		t.Fatal("A2A-seq interleaved or A2A sequential")
	}
	if ContiguousMapping(4).Apply(seq).Interleaved() {
		t.Error("Apply made a sequential exchange interleaved")
	}
	var got []int
	for {
		d, ok := seq.NextPacket(1, 0, nil)
		if !ok {
			break
		}
		got = append(got, d)
	}
	if want := []int{2, 2, 3, 3, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("node 1 sent %v, want %v", got, want)
	}
}

func TestExchangeCheckNodes(t *testing.T) {
	ex := NewExchange("x", [][]Message{{{Dst: 1, Packets: 1}}, {{Dst: 0, Packets: 1}}}, true)
	if err := ex.CheckNodes(2); err != nil {
		t.Errorf("in-range exchange rejected: %v", err)
	}
	if err := ex.CheckNodes(1); err == nil {
		t.Error("source and destination beyond a 1-node machine accepted")
	}
	bad := NewExchange("x", [][]Message{{{Dst: -1, Packets: 1}}}, true)
	if err := bad.CheckNodes(4); err == nil {
		t.Error("negative destination accepted")
	}
}
