package harness

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diam2/internal/campaign"
	"diam2/internal/store"
)

// This file implements the experiment scheduler: every sweep in this
// package (figure batteries, saturation ladders, resilience sweeps)
// enumerates its independent simulation points and submits them here,
// and the scheduler fans them out across a worker pool.
//
// The determinism contract: a sweep's output is a pure function of its
// parameters and the scale's seed, independent of the worker count and
// of scheduling order. Two mechanisms enforce it:
//
//   - Per-point seeds are derived from the point's stable key, not
//     from worker identity or completion order: seed =
//     DeriveSeed(scale.Seed, key). A point therefore draws the same
//     random stream whether it runs first on one worker or last on
//     sixteen.
//   - Results are placed by submission index, whatever order the
//     workers start and finish them in.
//
// Individual runs were audited to share no mutable state: each
// sim.Engine owns its *rand.Rand (seeded from sim.Config.Seed), every
// routing algorithm builds its own tables per run, and topologies are
// immutable after construction, so one topology instance is safely
// shared by all workers of a sweep.

// Point is one independent experiment of a sweep: a stable key that
// identifies it (and derives its seed) plus the function that runs it.
// Run receives the point's derived seed and the scheduler's context;
// long-running points may honor ctx cancellation, but the scheduler
// only guarantees that no *new* point starts after cancellation.
type Point[T any] struct {
	Key string
	Run func(ctx context.Context, seed int64) (T, error)
	// UGAL, when non-nil, is the resolved adaptive-routing
	// configuration the point runs under, folded into the point's
	// canonical store key. The key string names the algorithm kind but
	// not every UGAL knob (CLIs can override nI and the cost constant
	// without changing it), so points running a UGAL-family algorithm
	// must pin the configuration here or risk reusing a stored result
	// from a differently-configured run.
	UGAL *UGALConfig
	// Cost is the point's expected run time relative to the other
	// points of its sweep, in any unit. The pool starts the costliest
	// point first, so that a sweep's longest run does not start last
	// and run alone; equal costs, such as those of points that set
	// none, keep submission order. Cost decides only when a point
	// starts, never its seed, key or result.
	Cost float64
}

// Progress observes sweep progress: it is called once per completed
// point, in completion order, never concurrently. done counts
// completed points, total is the sweep size, and elapsed is the
// point's own run time.
type Progress func(done, total int, key string, elapsed time.Duration)

// Sched carries the fan-out knobs of a sweep; it rides along a Scale
// so generator signatures stay stable. The zero value keeps every CPU
// busy (GOMAXPROCS / Scale.Cores points at a time) with no progress
// reporting.
type Sched struct {
	// Workers is the worker-pool size: 1 runs serially on the calling
	// goroutine, <= 0 means GOMAXPROCS divided by the Scale's Cores, at
	// least 1.
	Workers int
	// OnPoint, if set, observes every completed point.
	OnPoint Progress
	// Ctx, if set, cancels the sweep; nil means context.Background().
	// (A context in a struct is unidiomatic, but Sched is a per-call
	// options bag threaded through existing Scale-typed parameters.)
	Ctx context.Context
	// Store, when non-nil, consults the content-addressed experiment
	// store before running each point and records every computed
	// result, making interrupted campaigns resumable (see store.go in
	// this package and the internal/store package).
	Store *store.Store
	// Force bypasses store lookups — every point recomputes — while
	// still recording the fresh results.
	Force bool
	// Campaign, when non-nil, runs every point under the multi-process
	// campaign protocol (see internal/campaign): points are claimed via
	// heartbeated lease files keyed by their canonical store keys, so
	// any number of worker processes can share one store; failures are
	// retried with backoff and quarantined after repeated failures
	// instead of killing the sweep; and a drained worker hands its
	// unclaimed points to the others. Requires Store.
	Campaign *campaign.Worker
}

func (s Sched) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// PoolSize resolves the worker-pool size for engines that each run
// cores workers of their own (Scale.Cores); a sweep of fewer points
// runs fewer. An explicit Workers is used as given. The default shares
// the CPUs out among the engines — GOMAXPROCS / cores points at a time,
// at least 1 — because a sharded engine's workers meet at a barrier
// every few cycles, and on an oversubscribed machine each meeting waits
// for a thread that is queued behind another point's.
func (s Sched) PoolSize(cores int) int {
	if s.Workers > 0 {
		return s.Workers
	}
	return max(1, runtime.GOMAXPROCS(0)/max(cores, 1))
}

// DeriveSeed maps (base seed, point key) to the seed a point runs
// with: FNV-1a over the base seed's bytes followed by the key. Points
// of one sweep draw independent, reproducible random streams that do
// not depend on execution order.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	io.WriteString(h, key)
	return int64(h.Sum64())
}

// PanicError wraps a panic captured from a point so one bad parameter
// combination fails its sweep with context instead of killing the
// process (or, worse, a worker goroutine taking the whole pool down).
type PanicError struct {
	Key   string
	Value any
	Stack []byte
}

// Error implements error. The point key is not repeated here: every
// path out of the scheduler wraps the error as "point <key>: ...", so
// including it again would double it up.
func (p *PanicError) Error() string {
	return fmt.Sprintf("panicked: %v\n%s", p.Value, p.Stack)
}

// campaignSignal reports errors that are campaign verdicts rather than
// point failures (already self-describing; the scheduler routes them
// instead of wrapping them).
func campaignSignal(err error) bool {
	var q *campaign.Quarantined
	return errors.Is(err, campaign.ErrDrained) || errors.As(err, &q)
}

// execute is the one path from a point to its result; sweep.exec
// calls it for every point with the point's derived seed and, when
// sc.Sched.Store is set, its canonical store key. Without a store it
// runs the point. With one it returns the stored result under key
// unless lookups are off (-force, or a telemetry sink collecting: see
// store.go), and otherwise runs the point and records the result. With
// Sched.Campaign set the same lookup/attempt pair runs under the
// worker's lease/heartbeat/retry protocol; a cache hit is
// indistinguishable from a computed result downstream either way, so a
// multi-worker campaign renders byte-identically to a cold
// single-process run.
//
// A panic in the point comes back as a *PanicError: a campaign retries
// and quarantines the point instead of losing the pool to it, and a
// plain sweep fails with it. Every failure but a campaign verdict is
// wrapped as "point <key>: ...", so the sweep's first error always
// names the point that died, however many layers of figure code
// re-wrap it.
func execute[T any](ctx context.Context, sc *Scale, p Point[T], key string, seed int64) (res T, err error) {
	st, w := sc.Sched.Store, sc.Sched.Campaign
	lookup := st != nil && !sc.Sched.Force && sc.Telemetry.Sink == nil
	have := false
	cached := func() bool {
		if lookup {
			res, have = lookupKey[T](st, key)
		}
		return have
	}
	attempt := func(actx context.Context) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Key: p.Key, Value: r, Stack: debug.Stack()}
			}
		}()
		start := time.Now()
		v, err := p.Run(actx, seed)
		if err == nil && st != nil {
			err = record(sc, p.Key, key, seed, v, start)
		}
		if err == nil {
			res, have = v, true
		}
		return err
	}
	if w == nil {
		if !cached() {
			err = attempt(ctx)
		}
	} else {
		err = w.Execute(ctx, campaign.Task{Key: key, Point: p.Key, Attempt: attempt,
			// Other processes append to the shared store: refresh it
			// before calling a miss a miss.
			Cached: func() bool { return cached() || (lookup && st.Refresh() == nil && cached()) },
		})
		if err == nil && !have {
			// Execute succeeded without the attempt or a cache hit
			// producing a value; surface it rather than emitting a
			// zero value into a figure.
			err = fmt.Errorf("campaign: point %s finished without a result", p.Key)
		}
	}
	if err != nil && !campaignSignal(err) {
		err = fmt.Errorf("point %s: %w", p.Key, err)
	}
	return res, err
}

// sweep is one Collect call's bookkeeping: results by submission
// index, the completion count, the first fatal error and the campaign
// verdicts, which are not fatal.
type sweep[T any] struct {
	sc      Scale
	key     func(Point[T]) string // canonical store keys; nil without a store
	points  []Point[T]
	out     []T
	done    int
	fatal   error
	quars   []*campaign.Quarantined
	drained int
}

// outcome is one finished point.
type outcome[T any] struct {
	i       int
	res     T
	err     error
	elapsed time.Duration
}

// exec runs point i with its derived seed and, with a store attached,
// its canonical key, derived here once per point.
func (s *sweep[T]) exec(ctx context.Context, i int) outcome[T] {
	start := time.Now()
	p, key := s.points[i], ""
	if s.key != nil {
		key = s.key(p)
	}
	res, err := execute(ctx, &s.sc, p, key, DeriveSeed(s.sc.Seed, p.Key))
	return outcome[T]{i: i, res: res, err: err, elapsed: time.Since(start)}
}

// finish records a finished point and reports whether the sweep goes
// on: false once a point has failed. Campaign verdicts — a quarantined
// poison point, a graceful drain — are deliberately not fatal: the
// sweep keeps going so every healthy point lands in the store, and the
// verdicts are folded into the error Collect returns (the figure still
// cannot render, but the campaign's work is preserved for the next
// worker or rerun).
func (s *sweep[T]) finish(o outcome[T]) bool {
	s.done++
	if s.sc.Sched.OnPoint != nil {
		s.sc.Sched.OnPoint(s.done, len(s.points), s.points[o.i].Key, o.elapsed)
	}
	var q *campaign.Quarantined
	switch {
	case o.err == nil:
		s.out[o.i] = o.res
	case errors.As(o.err, &q):
		s.quars = append(s.quars, q)
	case errors.Is(o.err, campaign.ErrDrained):
		s.drained++
	case s.fatal == nil:
		s.fatal = o.err
	}
	return s.fatal == nil
}

// runSerial is the one-worker path: submission order, no goroutines —
// the reference the equivalence tests compare the pool against.
func (s *sweep[T]) runSerial(ctx context.Context) {
	for i := range s.points {
		if ctx.Err() != nil || !s.finish(s.exec(ctx, i)) {
			return
		}
	}
}

// runPool runs the points on w workers, costliest first. The workers
// take positions from one cursor over the points sorted by descending
// Cost (stable, so equal costs keep submission order) and hand each
// outcome to the calling goroutine, which records it, so OnPoint calls
// never overlap. The first fatal error cancels the pool's context: no
// new point starts after it, and the points in flight finish.
func (s *sweep[T]) runPool(ctx context.Context, w int) {
	order := make([]int, len(s.points))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(s.points[b].Cost, s.points[a].Cost) })
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	outcomes := make(chan outcome[T])
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				outcomes <- s.exec(ctx, order[k])
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()
	for o := range outcomes {
		if !s.finish(o) {
			cancel()
		}
	}
}

// Collect runs the points of a sweep on sc.Sched's worker pool and
// returns their results in submission order. Each point runs with its
// derived seed (see DeriveSeed), so the results are identical for any
// worker count and any start order. The pool starts the costliest
// points first (see Point.Cost). The first point error (or
// cancellation of sc.Sched.Ctx) stops the sweep: no new points start,
// in-flight points finish and are discarded, and Collect returns that
// first error and no results. When the only failures are campaign
// verdicts, every other point runs and Collect returns their results
// beside the verdict, with zero values in the verdicts' places.
func Collect[T any](sc Scale, points []Point[T]) ([]T, error) {
	ctx := sc.Sched.context()
	if sc.Sched.Campaign != nil && sc.Sched.Store == nil {
		return nil, errors.New("harness: Sched.Campaign requires Sched.Store (leases are keyed by canonical store keys)")
	}
	s := &sweep[T]{sc: sc, points: points, out: make([]T, len(points))}
	if sc.Sched.Store != nil {
		s.key = keyer[T](sc)
	}
	if w := min(sc.Sched.PoolSize(sc.Cores), len(points)); w > 1 {
		s.runPool(ctx, w)
	} else {
		s.runSerial(ctx)
	}
	if s.fatal != nil {
		return nil, s.fatal
	}
	if err := campaignVerdict(s.quars, s.drained); err != nil {
		return s.out, err
	}
	if s.done < len(points) { // cancelled before every point started
		return nil, ctx.Err()
	}
	return s.out, nil
}

// campaignVerdict folds a sweep's non-fatal campaign outcomes into its
// returned error: quarantined poison points first (they mean results
// are genuinely missing), then a graceful drain (results are merely
// someone else's job now).
func campaignVerdict(quars []*campaign.Quarantined, drainSkipped int) error {
	if len(quars) > 0 {
		names := make([]string, 0, 3)
		for _, q := range quars[:min(len(quars), 3)] {
			names = append(names, q.Point)
		}
		more := ""
		if len(quars) > len(names) {
			more = fmt.Sprintf(", +%d more", len(quars)-len(names))
		}
		return fmt.Errorf("campaign: %s quarantined after repeated failures (%s%s; see campaign/quarantine in the store for full error logs): %w",
			store.FormatCount(len(quars), "point"), strings.Join(names, ", "), more, quars[0])
	}
	if drainSkipped > 0 {
		return fmt.Errorf("campaign: %s released for other workers: %w",
			store.FormatCount(drainSkipped, "unfinished point"), campaign.ErrDrained)
	}
	return nil
}
