package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// newTestQueue returns an empty queue in the state NewNetwork leaves
// one in, with a private ring arena.
func newTestQueue() (*queue, *ringArena) {
	return &queue{head: entry{ready: neverReady}}, &ringArena{}
}

func TestQueueFIFO(t *testing.T) {
	q, a := newTestQueue()
	if !q.empty() || q.len() != 0 {
		t.Fatal("new queue not empty")
	}
	for i := 0; i < 5; i++ {
		q.push(a, entry{ready: int64(i)})
	}
	if q.len() != 5 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 5; i++ {
		if got := q.pop(a).ready; got != int64(i) {
			t.Fatalf("pop %d returned %d", i, got)
		}
	}
	if !q.empty() {
		t.Fatal("queue not empty after draining")
	}
	if q.head.ready != neverReady {
		t.Fatalf("drained queue's head polls ready at %d, want neverReady", q.head.ready)
	}
}

func TestQueueAt(t *testing.T) {
	q, a := newTestQueue()
	for i := 0; i < 4; i++ {
		q.push(a, entry{ready: int64(10 + i)})
	}
	q.pop(a)
	for i := 0; i < 3; i++ {
		if q.at(a, i).ready != int64(11+i) {
			t.Fatalf("at(%d) = %d", i, q.at(a, i).ready)
		}
	}
	// Mutation through at() must persist, on the inline head and in the
	// ring.
	q.at(a, 0).outPort = 5
	q.at(a, 1).outPort = 7
	if q.at(a, 0).outPort != 5 || q.at(a, 1).outPort != 7 {
		t.Fatal("at() mutation lost")
	}
}

func TestQueueRemoveAt(t *testing.T) {
	q, a := newTestQueue()
	for i := 0; i < 5; i++ {
		q.push(a, entry{ready: int64(i)})
	}
	if got := q.removeAt(a, 2).ready; got != 2 {
		t.Fatalf("removeAt(2) = %d", got)
	}
	want := []int64{0, 1, 3, 4}
	for i, w := range want {
		if q.at(a, i).ready != w {
			t.Fatalf("after removeAt, at(%d) = %d, want %d", i, q.at(a, i).ready, w)
		}
	}
	if got := q.removeAt(a, 0).ready; got != 0 {
		t.Fatalf("removeAt(0) = %d", got)
	}
	if q.len() != 3 {
		t.Fatalf("len = %d", q.len())
	}
}

// TestQueueRingWrapGrow drives the ring through growth with a wrapped
// start: pops move start off zero, pushes wrap past the ring's end, and
// the next doubling must unroll the wrapped contents in order.
func TestQueueRingWrapGrow(t *testing.T) {
	q, a := newTestQueue()
	next, want := int64(0), int64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(a, entry{ready: next})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := q.pop(a).ready; got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	push(5) // head + a full first ring
	if q.cap != minRing || q.start != 0 {
		t.Fatalf("ring cap %d start %d after %d pushes, want %d and 0", q.cap, q.start, 5, minRing)
	}
	pop(3)
	push(3) // wraps: start 3, entries at ring slots 3, 0, 1, 2
	if q.start != 3 || q.len() != 5 {
		t.Fatalf("start %d len %d, want a wrapped full ring (3, 5)", q.start, q.len())
	}
	push(1) // grows with the ring wrapped
	if q.cap != 2*minRing || q.start != 0 {
		t.Fatalf("ring cap %d start %d after growth, want %d and 0", q.cap, q.start, 2*minRing)
	}
	push(300)
	pop(200)
	push(100)
	pop(q.len())
	if !q.empty() {
		t.Fatal("queue should be empty")
	}
	// The outgrown rings went back to the arena: a second queue reaching
	// the same depth reuses them instead of extending it.
	size := len(a.mem)
	q2 := &queue{head: entry{ready: neverReady}}
	for i := 0; i < 200; i++ {
		q2.push(a, entry{ready: int64(i)})
	}
	if len(a.mem) != size {
		t.Fatalf("arena grew from %d to %d entries although freed rings cover the demand", size, len(a.mem))
	}
}

// TestQueueRemoveAtWrapBoundary removes from the middle of a ring whose
// contents wrap around its end: removeAt indexes from the front of the
// queue, shifts the entries ahead of the gap across the wrap, and must
// leave order and addressing intact on both sides of it.
func TestQueueRemoveAtWrapBoundary(t *testing.T) {
	q, a := newTestQueue()
	for i := 0; i < 9; i++ { // head + a full ring of 8
		q.push(a, entry{ready: int64(i)})
	}
	for i := 0; i < 6; i++ {
		if got := q.pop(a).ready; got != int64(i) {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	for i := 9; i < 14; i++ { // tail wraps past the ring's end
		q.push(a, entry{ready: int64(i)})
	}
	if q.cap != 8 || q.start != 6 {
		t.Fatalf("ring cap %d start %d, want 8 and 6 (wrapped)", q.cap, q.start)
	}
	// Queue holds 6..13; entry 4 (value 10) sits past the wrap, the two
	// ahead of it in the ring (7, 8) before it.
	if got := q.removeAt(a, 4).ready; got != 10 {
		t.Fatalf("removeAt(4) = %d, want 10", got)
	}
	if got := q.removeAt(a, 1).ready; got != 7 {
		t.Fatalf("removeAt(1) = %d, want 7", got)
	}
	want := []int64{6, 8, 9, 11, 12, 13}
	if q.len() != len(want) {
		t.Fatalf("len = %d, want %d", q.len(), len(want))
	}
	for i, w := range want {
		if got := q.at(a, i).ready; got != w {
			t.Fatalf("at(%d) = %d, want %d", i, got, w)
		}
	}
	for _, w := range want {
		if got := q.pop(a).ready; got != w {
			t.Fatalf("drain pop = %d, want %d", got, w)
		}
	}
	if !q.empty() {
		t.Fatal("queue should be empty")
	}
}

// Property: any interleaving of pushes and ordered removals preserves
// FIFO order of the survivors.
func TestQuickQueueOrder(t *testing.T) {
	prop := func(ops []uint8) bool {
		q, a := newTestQueue()
		next := int64(0)
		var model []int64
		for _, op := range ops {
			switch {
			case op%3 != 0 || len(model) == 0:
				q.push(a, entry{ready: next})
				model = append(model, next)
				next++
			default:
				i := int(op/3) % len(model)
				got := q.removeAt(a, i).ready
				if got != model[i] {
					return false
				}
				model = append(model[:i], model[i+1:]...)
			}
			if q.len() != len(model) {
				return false
			}
		}
		for i, w := range model {
			if q.at(a, i).ready != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHotStateBudget pins the sizes DESIGN.md §15's cache-line budget
// is written in: a Packet is one line, two queues share one, four
// entries fill one, and a router's block holds 52 + 72·VCs bytes per
// port plus 6 per network port — on SF(q=13), 28 ports, that is 5.5 KB
// at 2 VCs for 100 KB of modelled buffer per port.
func TestHotStateBudget(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s != cacheLine {
		t.Errorf("Packet is %d bytes, budget %d", s, cacheLine)
	}
	if s := unsafe.Sizeof(queue{}); s != cacheLine/2 {
		t.Errorf("queue is %d bytes, budget %d", s, cacheLine/2)
	}
	if s := unsafe.Sizeof(entry{}); s != cacheLine/4 {
		t.Errorf("entry is %d bytes, budget %d", s, cacheLine/4)
	}
	for _, nv := range []int{1, 2, 4} {
		r := Router{nPorts: 28, netPorts: 19, nv: nv}
		var l layout
		r.carve(&l, &blockArena{})
		// Per port: 5 int64 cycles, 2 queues and 2 int32 counters per VC,
		// 2 int32 sums, 2 int16 round-robin pointers; per network port a
		// neighbor (int32) and its return port (int16).
		want := 28*(5*8+4+4+2+2) + 28*nv*(2*32+4+4) + 19*(4+2)
		if l.off < want || l.off >= want+cacheLine {
			t.Errorf("router block at %d VCs is %d bytes, budget %d (+ alignment)", nv, l.off, want)
		}
	}
}
