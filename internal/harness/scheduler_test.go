package harness

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// schedScale returns a Scale whose only relevant knobs are Seed and
// Sched (the scheduler never inspects the simulation fields).
func schedScale(seed int64, sched Sched) Scale {
	sc := QuickScale()
	sc.Seed = seed
	sc.Sched = sched
	return sc
}

func TestDeriveSeed(t *testing.T) {
	// Pin the derivation scheme: FNV-1a over the little-endian base
	// seed followed by the key. Replay sessions depend on this mapping
	// staying stable across releases.
	want := func(base int64, key string) int64 {
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(base))
		h.Write(b[:])
		h.Write([]byte(key))
		return int64(h.Sum64())
	}
	for _, tc := range []struct {
		base int64
		key  string
	}{{1, "fig6|SF|MIN|UNI|load=0.5000"}, {1, ""}, {-3, "x"}, {0, "x"}} {
		if got := DeriveSeed(tc.base, tc.key); got != want(tc.base, tc.key) {
			t.Errorf("DeriveSeed(%d, %q) = %d, want %d", tc.base, tc.key, got, want(tc.base, tc.key))
		}
	}
	// Distinct keys and distinct bases must give distinct seeds (the
	// property parallel independence rests on).
	seen := map[int64]string{}
	for _, base := range []int64{1, 2, 7} {
		for _, key := range []string{"a", "b", "a|b", "b|a"} {
			s := DeriveSeed(base, key)
			id := fmt.Sprintf("%d/%s", base, key)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: %s and %s both map to %d", prev, id, s)
			}
			seen[s] = id
		}
	}
}

// TestRunPointsInOrderEmit checks that results are emitted in
// submission order with the right values regardless of completion
// order, for several worker counts.
func TestRunPointsInOrderEmit(t *testing.T) {
	const n = 32
	for _, workers := range []int{1, 3, 4, 16} {
		points := make([]Point[int], n)
		for i := range points {
			points[i] = Point[int]{
				Key: fmt.Sprintf("p%02d", i),
				Run: func(_ context.Context, seed int64) (int, error) {
					// Stagger completion: later points finish sooner.
					time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
					return i * 10, nil
				},
			}
		}
		var got []int
		err := RunPoints(schedScale(1, Sched{Workers: workers}), points, func(i int, res int) error {
			got = append(got, res)
			if res != i*10 {
				t.Errorf("workers=%d: emit(%d) got result %d", workers, i, res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d results", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*10 {
				t.Fatalf("workers=%d: out-of-order emit at %d: %v", workers, i, got)
			}
		}
	}
}

// TestRunPointsSeedsIndependentOfWorkers checks the determinism
// contract at the scheduler level: every point sees the same derived
// seed no matter how many workers run the sweep.
func TestRunPointsSeedsIndependentOfWorkers(t *testing.T) {
	const n = 20
	collect := func(workers int) []int64 {
		seeds := make([]int64, n)
		points := make([]Point[int64], n)
		for i := range points {
			points[i] = Point[int64]{
				Key: fmt.Sprintf("point|%d", i),
				Run: func(_ context.Context, seed int64) (int64, error) { return seed, nil },
			}
		}
		if err := RunPoints(schedScale(42, Sched{Workers: workers}), points, func(i int, s int64) error {
			seeds[i] = s
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	serial := collect(1)
	for i, s := range serial {
		if want := DeriveSeed(42, fmt.Sprintf("point|%d", i)); s != want {
			t.Errorf("serial seed[%d] = %d, want DeriveSeed = %d", i, s, want)
		}
	}
	parallel := collect(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("seed[%d]: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

// TestRunPointsPanicCapture checks that a panicking point surfaces as
// a *PanicError naming the point instead of crashing the pool.
func TestRunPointsPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		points := []Point[int]{
			{Key: "ok-0", Run: func(context.Context, int64) (int, error) { return 0, nil }},
			{Key: "boom", Run: func(context.Context, int64) (int, error) { panic("bad parameter combination") }},
			{Key: "ok-2", Run: func(context.Context, int64) (int, error) { return 2, nil }},
		}
		err := RunPoints(schedScale(1, Sched{Workers: workers}), points, nil)
		if err == nil {
			t.Fatalf("workers=%d: panic not surfaced", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %T is not a *PanicError: %v", workers, err, err)
		}
		if pe.Key != "boom" {
			t.Errorf("workers=%d: panic attributed to %q", workers, pe.Key)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
	}
}

// TestRunPointsErrorStopsSweep checks that the first point error is
// returned and emission stops at the failure frontier.
func TestRunPointsErrorStopsSweep(t *testing.T) {
	boom := errors.New("engine exploded")
	const n = 24
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		points := make([]Point[int], n)
		for i := range points {
			points[i] = Point[int]{
				Key: fmt.Sprintf("p%d", i),
				Run: func(_ context.Context, _ int64) (int, error) {
					started.Add(1)
					if i == 5 {
						return 0, boom
					}
					return i, nil
				},
			}
		}
		var emitted []int
		err := RunPoints(schedScale(1, Sched{Workers: workers}), points, func(i int, _ int) error {
			emitted = append(emitted, i)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped %v", workers, err, boom)
		}
		for _, i := range emitted {
			if i >= 5 {
				t.Errorf("workers=%d: emitted point %d past the failed point", workers, i)
			}
		}
		if workers == 1 && started.Load() != 6 {
			t.Errorf("serial: started %d points, want 6 (stop at failure)", started.Load())
		}
	}
}

// TestRunPointsCancelPrompt is the short-timeout cancellation check:
// cancelling the context mid-sweep must return promptly (without
// draining the remaining points) and report the cancellation.
func TestRunPointsCancelPrompt(t *testing.T) {
	const n, pointSleep = 64, 20 * time.Millisecond
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		release := make(chan struct{})
		var started atomic.Int64
		points := make([]Point[int], n)
		for i := range points {
			points[i] = Point[int]{
				Key: fmt.Sprintf("slow%d", i),
				Run: func(_ context.Context, _ int64) (int, error) {
					if started.Add(1) == 1 {
						close(release) // first point is running: cancel now
					}
					time.Sleep(pointSleep)
					return i, nil
				},
			}
		}
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			done <- RunPoints(schedScale(1, Sched{Workers: workers, Ctx: ctx}), points, nil)
		}()
		<-release
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
			// Generous bound: in-flight points finish, queued ones must
			// not start. The full sweep would take n*pointSleep/workers
			// (>= 320 ms serial); prompt return stays well under it.
			if el := time.Since(start); el > n*pointSleep/time.Duration(workers)/2 {
				t.Errorf("workers=%d: cancellation took %v", workers, el)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: scheduler did not return after cancellation", workers)
		}
		if s := started.Load(); s > int64(n/2) {
			t.Errorf("workers=%d: %d of %d points started after cancellation", workers, s, n)
		}
	}
}

// TestRunPointsWindowBound checks the bounded-memory contract: the
// number of points dispatched beyond the in-order emit frontier never
// exceeds the window (4x the worker count).
func TestRunPointsWindowBound(t *testing.T) {
	const n, workers, window = 64, 2, 8
	var emitted atomic.Int64
	var maxAhead atomic.Int64
	points := make([]Point[int], n)
	for i := range points {
		points[i] = Point[int]{
			Key: fmt.Sprintf("w%d", i),
			Run: func(_ context.Context, _ int64) (int, error) {
				// Points ahead of the frontier = dispatched - emitted;
				// sampling a stale (lower) emitted count only
				// overestimates, so the assertion is safe.
				ahead := int64(i) + 1 - emitted.Load()
				for {
					cur := maxAhead.Load()
					if ahead <= cur || maxAhead.CompareAndSwap(cur, ahead) {
						break
					}
				}
				if i == 0 {
					time.Sleep(30 * time.Millisecond) // hold the frontier at 0
				}
				return i, nil
			},
		}
	}
	err := RunPoints(schedScale(1, Sched{Workers: workers}), points, func(int, int) error {
		emitted.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAhead.Load(); m > window {
		t.Errorf("dispatch ran %d points ahead of the emit frontier, window is %d", m, window)
	}
}

// TestRunPointsProgress checks the progress callback: once per point,
// done counting up to total, no concurrent invocations.
func TestRunPointsProgress(t *testing.T) {
	const n = 12
	var calls []int
	var keys []string
	points := make([]Point[int], n)
	for i := range points {
		points[i] = Point[int]{
			Key: fmt.Sprintf("pt%d", i),
			Run: func(context.Context, int64) (int, error) { return i, nil },
		}
	}
	sched := Sched{Workers: 4, OnPoint: func(done, total int, key string, elapsed time.Duration) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		if elapsed < 0 {
			t.Errorf("negative elapsed %v", elapsed)
		}
		calls = append(calls, done) // data race here would trip -race
		keys = append(keys, key)
	}}
	if err := RunPoints(schedScale(1, sched), points, nil); err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Errorf("progress done sequence %v, want 1..%d", calls, n)
			break
		}
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("progress reported %s twice", k)
		}
		seen[k] = true
	}
}

// TestSchedDefaults pins the pool-size resolution: the default shares
// GOMAXPROCS out among engines of Cores workers each, at least 1, and
// an explicit Workers is used as given.
func TestSchedDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, c := range []struct{ workers, cores, want int }{
		{0, 0, 8}, // zero Sched, serial engines: every CPU
		{0, 1, 8},
		{-1, 1, 8},
		{0, 2, 4}, // two-worker engines: four points at a time
		{0, 3, 2},
		{0, 8, 1},
		{0, 16, 1}, // more engine workers than CPUs: still one point
		{8, 4, 8},  // an explicit -j is not divided
		{1, 2, 1},
	} {
		if got := (Sched{Workers: c.workers}).PoolSize(c.cores); got != c.want {
			t.Errorf("Workers %d, Cores %d on 8 CPUs: pool of %d, want %d", c.workers, c.cores, got, c.want)
		}
	}
}
