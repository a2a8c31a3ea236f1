package traffic

import "sync/atomic"

// countdown counts packets still to inject across all nodes of a
// closed-loop workload, with a single-worker fast path: an engine with
// one worker drives NextPacket/Done from one goroutine, so the counter
// stays a plain int64 and every decrement is a register op. With more
// workers NextPacket is called concurrently from different source
// nodes, so sim.NewParallelEngine flips the counter to its atomic slow
// path via the workload's EnterParallel before any worker goroutine
// starts — the flip (and the plain->atomic value handoff) therefore
// happens-before every concurrent access.
//
// The par branch is perfectly predicted (it never changes within a
// run), so one-worker engines pay no LOCK XADD per injected
// packet — measurable on exchange drains, where every packet of the
// run crosses this counter.
type countdown struct {
	par    bool
	plain  int64
	shared atomic.Int64
}

// init sets the starting count (construction time, single-threaded).
func (c *countdown) init(v int64) { c.plain = v }

// enterParallel switches to the atomic slow path; must be called
// before any concurrent dec/zero, and is idempotent.
func (c *countdown) enterParallel() {
	if !c.par {
		c.shared.Store(c.plain)
		c.par = true
	}
}

func (c *countdown) dec() {
	if c.par {
		c.shared.Add(-1)
	} else {
		c.plain--
	}
}

func (c *countdown) zero() bool {
	if c.par {
		return c.shared.Load() == 0
	}
	return c.plain == 0
}
