package harness

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
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
//   - Results are emitted to the caller in submission order from the
//     calling goroutine, whatever order the workers finish in.
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
}

// Progress observes sweep progress: it is called once per completed
// point, in completion order, from the collecting goroutine (never
// concurrently). done counts completed points, total is the sweep
// size, and elapsed is the point's own run time.
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

// runPoint executes one point with panic capture. Any failure —
// returned error or captured panic — comes back wrapped with the
// point's key, so the sweep's first error always names the sweep point
// that died, no matter how many layers of figure code re-wrap it.
func runPoint[T any](ctx context.Context, p Point[T], seed int64) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("point %s: %w", p.Key, &PanicError{Key: p.Key, Value: r, Stack: debug.Stack()})
		}
	}()
	res, err = p.Run(ctx, seed)
	if err != nil && !campaignSignal(err) {
		err = fmt.Errorf("point %s: %w", p.Key, err)
	}
	return res, err
}

// outcome is one finished point traveling from a worker to the collector.
type outcome[T any] struct {
	i       int
	res     T
	err     error
	elapsed time.Duration
}

// RunPoints executes the points of a sweep on sc.Sched's worker pool
// and calls emit(i, result) for every point, in submission order, from
// the calling goroutine. Each point runs with its derived seed (see
// DeriveSeed), so the emitted results are identical for any worker
// count. The first point error (or emit error, or cancellation of
// sc.Sched.Ctx) stops the sweep: no new points start, in-flight points
// finish and are discarded, and that first error is returned.
func RunPoints[T any](sc Scale, points []Point[T], emit func(i int, res T) error) error {
	ctx := sc.Sched.context()
	n := len(points)
	if n == 0 {
		return ctx.Err()
	}
	if sc.Sched.Campaign != nil && sc.Sched.Store == nil {
		return errors.New("harness: Sched.Campaign requires Sched.Store (leases are keyed by canonical store keys)")
	}
	if sc.Sched.Store != nil {
		wrapped := make([]Point[T], n)
		for i, p := range points {
			wrapped[i] = stored(sc, p)
		}
		points = wrapped
	}
	w := min(sc.Sched.PoolSize(sc.Cores), n)
	if w == 1 {
		return runSerial(ctx, sc, points, emit)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Results buffered ahead of the in-order emit frontier are bounded
	// (the scheduler's only unbounded-memory risk when one early point
	// is much slower than its successors).
	window := 4 * w
	sem := make(chan struct{}, window) // dispatched-but-not-emitted bound
	indices := make(chan int)
	results := make(chan outcome[T], w)

	go func() { // dispatcher
		defer close(indices)
		for i := range points {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				start := time.Now()
				res, err := runPoint(ctx, points[i], DeriveSeed(sc.Seed, points[i].Key))
				select {
				case results <- outcome[T]{i: i, res: res, err: err, elapsed: time.Since(start)}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: report completions as they land, emit in submission
	// order, stop everything at the first fatal error. Campaign
	// verdicts — a quarantined poison point, a graceful drain — are
	// deliberately NOT fatal: the sweep keeps going so every healthy
	// point lands in the store, and the verdicts are folded into the
	// error returned at the end (the figure still cannot render, but
	// the campaign's work is preserved for the next worker or rerun).
	pending := make(map[int]outcome[T], window)
	next, done := 0, 0
	var firstErr error
	var quars []*campaign.Quarantined
	drainSkipped := 0
	for out := range results {
		done++
		if sc.Sched.OnPoint != nil {
			sc.Sched.OnPoint(done, n, points[out.i].Key, out.elapsed)
		}
		if out.err != nil && firstErr == nil {
			var q *campaign.Quarantined
			switch {
			case errors.As(out.err, &q):
				quars = append(quars, q)
			case errors.Is(out.err, campaign.ErrDrained):
				drainSkipped++
			default:
				firstErr = out.err
				cancel()
			}
		}
		pending[out.i] = out
		for {
			o, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			<-sem
			if firstErr == nil && o.err == nil && emit != nil {
				if err := emit(next, o.res); err != nil {
					firstErr = fmt.Errorf("point %s: emit: %w", points[next].Key, err)
					cancel()
				}
			}
			next++
		}
		if next == n {
			break
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := campaignVerdict(quars, drainSkipped); err != nil {
		return err
	}
	if next < n { // results closed early: workers bailed on cancellation
		return ctx.Err()
	}
	return nil
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

// runSerial is the one-worker path: same seeds, same emit order, no
// goroutines — the baseline the equivalence tests compare the pool
// against.
func runSerial[T any](ctx context.Context, sc Scale, points []Point[T], emit func(i int, res T) error) error {
	n := len(points)
	var quars []*campaign.Quarantined
	drainSkipped := 0
	for i, p := range points {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		res, err := runPoint(ctx, p, DeriveSeed(sc.Seed, p.Key))
		if sc.Sched.OnPoint != nil {
			sc.Sched.OnPoint(i+1, n, p.Key, time.Since(start))
		}
		if err != nil {
			var q *campaign.Quarantined
			switch {
			case errors.As(err, &q):
				quars = append(quars, q)
			case errors.Is(err, campaign.ErrDrained):
				drainSkipped++
			default:
				return err
			}
			continue
		}
		if emit != nil {
			if err := emit(i, res); err != nil {
				return fmt.Errorf("point %s: emit: %w", p.Key, err)
			}
		}
	}
	return campaignVerdict(quars, drainSkipped)
}

// Collect runs the points and returns their results in submission
// order — the convenience most figure generators use (their results
// are small summary structs; sweeps with bulky per-point output should
// stream through RunPoints directly to keep memory bounded).
func Collect[T any](sc Scale, points []Point[T]) ([]T, error) {
	out := make([]T, len(points))
	err := RunPoints(sc, points, func(i int, res T) error {
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
