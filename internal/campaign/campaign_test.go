package campaign

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testWorker joins dir with a policy tuned for tests: a short lease
// TTL (so steal tests don't stall the suite, and heartbeats and polls,
// derived from it, come fast) and a tiny backoff.
func testWorker(t *testing.T, dir, owner string, mut func(*Policy)) *Worker {
	t.Helper()
	pol := Policy{
		LeaseTTL:    500 * time.Millisecond,
		BaseBackoff: time.Millisecond,
	}
	if mut != nil {
		mut(&pol)
	}
	w, err := NewWorker(dir, owner, pol)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestNewWorkerRejectsBadOwner(t *testing.T) {
	dir := t.TempDir()
	for _, owner := range []string{"", "a/b", ".", "..", "x/../y"} {
		if _, err := NewWorker(dir, owner, Policy{}); err == nil {
			t.Errorf("NewWorker accepted owner %q", owner)
		}
	}
}

// TestAcquireBusyRelease pins the claim protocol: a held lease blocks
// other workers, release frees it.
func TestAcquireBusyRelease(t *testing.T) {
	dir := t.TempDir()
	w1 := testWorker(t, dir, "w1", nil)
	w2 := testWorker(t, dir, "w2", nil)

	l1, err := w1.acquire("k1", "point-1")
	if err != nil || l1 == nil {
		t.Fatalf("w1 acquire = lease %v, err %v; want a held lease", l1, err)
	}
	l2, err := w2.acquire("k1", "point-1")
	if err != nil {
		t.Fatal(err)
	}
	if l2 != nil {
		t.Fatal("w2 acquired a lease w1 already holds")
	}
	w1.release(l1)
	l2, err = w2.acquire("k1", "point-1")
	if err != nil || l2 == nil {
		t.Fatalf("w2 acquire after release = %v, %v; want a held lease", l2, err)
	}
	w2.release(l2)
}

// TestStealExpiredLease: a lease whose mtime has aged past the TTL is
// reclaimable by any worker, and the original owner's release must not
// remove the thief's fresh lease.
func TestStealExpiredLease(t *testing.T) {
	dir := t.TempDir()
	w1 := testWorker(t, dir, "w1", nil)
	w2 := testWorker(t, dir, "w2", nil)

	l1, err := w1.acquire("k1", "p")
	if err != nil || l1 == nil {
		t.Fatalf("acquire: %v, %v", l1, err)
	}
	// Simulate a dead w1: stop its heartbeats and backdate the lease.
	w1.untrack(l1)
	old := time.Now().Add(-2 * w1.pol.leaseTTL())
	if err := os.Chtimes(l1.path, old, old); err != nil {
		t.Fatal(err)
	}
	l2, err := w2.acquire("k1", "p")
	if err != nil || l2 == nil {
		t.Fatalf("steal failed: lease %v, err %v", l2, err)
	}
	// w1's zombie release must notice the theft and leave w2's lease.
	w1.release(l1)
	if _, err := os.Stat(l2.path); err != nil {
		t.Fatalf("w1's release removed w2's stolen lease: %v", err)
	}
	w2.release(l2)
}

// TestHeartbeatKeepsLeaseFresh: a held lease's mtime advances, so a
// slow point on a live worker is never stolen.
func TestHeartbeatKeepsLeaseFresh(t *testing.T) {
	dir := t.TempDir()
	w := testWorker(t, dir, "w1", nil)
	l, err := w.acquire("k1", "p")
	if err != nil || l == nil {
		t.Fatalf("acquire: %v, %v", l, err)
	}
	defer w.release(l)
	fi0, err := os.Stat(l.path)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		fi, err := os.Stat(l.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.ModTime().After(fi0.ModTime()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lease mtime never refreshed by the heartbeater")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestManifestFirstWriterWins(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(dir, Manifest{Name: "first"}); err != nil {
		t.Fatal(err)
	}
	err := WriteManifest(dir, Manifest{Name: "second"})
	if !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second submit = %v, want fs.ErrExist", err)
	}
	m, err := ReadManifest(dir)
	if err != nil || m == nil || m.Name != "first" {
		t.Fatalf("manifest = %+v, %v; want the first submission", m, err)
	}
}

// TestExecuteRetriesThenSucceeds is the satellite scenario: a point
// fails twice, then succeeds; the attempt log must be cleared on
// success.
func TestExecuteRetriesThenSucceeds(t *testing.T) {
	dir := t.TempDir()
	w := testWorker(t, dir, "w1", func(p *Policy) { p.MaxAttempts = 5 })
	var calls atomic.Int32
	err := w.Execute(context.Background(), Task{
		Key:   "k1",
		Point: "flaky",
		Attempt: func(ctx context.Context) error {
			if calls.Add(1) <= 2 {
				return fmt.Errorf("transient failure %d", calls.Load())
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Execute = %v, want success after retries", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (fail, fail, succeed)", got)
	}
	if _, err := os.Stat(w.failedPath("k1")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failure log not cleared after success: %v", err)
	}
}

// TestExecuteQuarantinesPoisonPoint: after MaxAttempts failures the
// point is quarantined — and stays quarantined for every later Execute
// without running the attempt again.
func TestExecuteQuarantinesPoisonPoint(t *testing.T) {
	dir := t.TempDir()
	w := testWorker(t, dir, "w1", func(p *Policy) { p.MaxAttempts = 2 })
	var calls atomic.Int32
	err := w.Execute(context.Background(), Task{
		Key:   "k1",
		Point: "poison",
		Attempt: func(ctx context.Context) error {
			calls.Add(1)
			return errors.New("always broken")
		},
	})
	var q *Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("Execute = %v, want *Quarantined", err)
	}
	if q.Point != "poison" || q.Attempts != 2 || !strings.Contains(q.LastErr, "always broken") {
		t.Fatalf("quarantine verdict = %+v", q)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts = %d, want exactly MaxAttempts=2", got)
	}
	// Another worker (or a rerun) must hit the quarantine verdict
	// without burning CPU on the poison point.
	w2 := testWorker(t, dir, "w2", func(p *Policy) { p.MaxAttempts = 2 })
	err = w2.Execute(context.Background(), Task{
		Key:     "k1",
		Point:   "poison",
		Attempt: func(ctx context.Context) error { calls.Add(1); return nil },
	})
	if !errors.As(err, &q) {
		t.Fatalf("second Execute = %v, want *Quarantined", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("quarantined point ran again: %d attempts", got)
	}
}

// TestAttemptsAccumulateAcrossWorkers: the failure log is shared, so a
// point that failed once under w1 needs only MaxAttempts-1 more
// failures under w2 to quarantine.
func TestAttemptsAccumulateAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	w1 := testWorker(t, dir, "w1", func(p *Policy) { p.MaxAttempts = 3 })
	w2 := testWorker(t, dir, "w2", func(p *Policy) { p.MaxAttempts = 3 })
	boom := func(ctx context.Context) error { return errors.New("boom") }

	// One failure under w1, then force it to give the point up by
	// draining it mid-backoff: simplest is a single-attempt run via a
	// cancelled context after the first failure. Instead, record the
	// failure directly through the same path Execute uses.
	l, err := w1.acquire("k1", "p")
	if err != nil || l == nil {
		t.Fatalf("acquire: %v, %v", l, err)
	}
	w1.recordFailure(Task{Key: "k1", Point: "p"}, 1, errors.New("boom"))
	w1.release(l)

	err = w2.Execute(context.Background(), Task{Key: "k1", Point: "p", Attempt: boom})
	var q *Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("Execute = %v, want *Quarantined", err)
	}
	if q.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 from w1 + 2 from w2)", q.Attempts)
	}
}

func TestExecuteDrain(t *testing.T) {
	dir := t.TempDir()
	w := testWorker(t, dir, "w1", nil)
	w.Drain()
	err := w.Execute(context.Background(), Task{
		Key:     "k1",
		Point:   "p",
		Attempt: func(ctx context.Context) error { t.Error("drained worker ran an attempt"); return nil },
	})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("Execute on a draining worker = %v, want ErrDrained", err)
	}
	if _, err := os.Stat(filepath.Join(dir, leasesDir, "k1"+leaseSuffix)); !errors.Is(err, fs.ErrNotExist) {
		t.Error("draining worker claimed a lease")
	}
}

func TestExecuteCachedShortCircuit(t *testing.T) {
	dir := t.TempDir()
	w := testWorker(t, dir, "w1", nil)
	err := w.Execute(context.Background(), Task{
		Key:     "k1",
		Point:   "p",
		Cached:  func() bool { return true },
		Attempt: func(ctx context.Context) error { t.Error("cached point ran an attempt"); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecuteWatchdogCancelsHungAttempt: the watchdog bounds one
// attempt; a hung attempt is cancelled, counts as a failure, and the
// point is retried.
func TestExecuteWatchdogCancelsHungAttempt(t *testing.T) {
	dir := t.TempDir()
	w := testWorker(t, dir, "w1", func(p *Policy) {
		p.Watchdog = 50 * time.Millisecond
		p.MaxAttempts = 3
	})
	var calls atomic.Int32
	err := w.Execute(context.Background(), Task{
		Key:   "k1",
		Point: "hung",
		Attempt: func(ctx context.Context) error {
			if calls.Add(1) == 1 {
				<-ctx.Done() // hang until the watchdog fires
				return fmt.Errorf("watchdog: %w", ctx.Err())
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Execute = %v, want success on the post-watchdog retry", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (hung+cancelled, then succeeded)", got)
	}
}

// TestBackoffBounds pins the retry curve: exponential from Base, capped
// at 40 × Base, jittered downward by at most half.
func TestBackoffBounds(t *testing.T) {
	dir := t.TempDir()
	w := testWorker(t, dir, "w1", func(p *Policy) { p.BaseBackoff = 25 * time.Millisecond })
	for attempts := 1; attempts <= 8; attempts++ {
		full := 25 * time.Millisecond << (attempts - 1)
		if full > time.Second {
			full = time.Second
		}
		for i := 0; i < 20; i++ {
			d := w.backoff(attempts)
			if d < full/2 || d > full {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", attempts, d, full/2, full)
			}
		}
	}
}

// TestScan covers the coordinator's view: workers with liveness
// verdicts, leases, failure and quarantine listings, and the
// empty-directory case.
func TestScan(t *testing.T) {
	empty, err := Scan(filepath.Join(t.TempDir(), "not-there-yet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Workers)+len(empty.Leases)+len(empty.Failed)+len(empty.Quarantined) != 0 {
		t.Fatalf("scan of a missing dir = %+v, want empty", empty)
	}

	dir := t.TempDir()
	if err := WriteManifest(dir, Manifest{Name: "fig 6a"}); err != nil {
		t.Fatal(err)
	}
	w1 := testWorker(t, dir, "w1", nil)
	w2 := testWorker(t, dir, "w2", nil)
	l, err := w1.acquire("deadbeef", "fig6|SF|MIN|UNI|load=0.5000")
	if err != nil || l == nil {
		t.Fatalf("acquire: %v, %v", l, err)
	}
	defer w1.release(l)
	w1.recordFailure(Task{Key: "cafe", Point: "flaky-point"}, 2, errors.New("transient"))
	if err := w1.quarantine(Failure{Point: "poison-point", Key: "f00d", Attempts: 3, LastErr: "boom"}); err != nil {
		t.Fatal(err)
	}
	// Kill w2's heartbeat and backdate its registration past its TTL.
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	// Close removes the registration (clean shutdown); recreate it aged,
	// as a SIGKILLed worker would have left it.
	old := time.Now().Add(-2 * w2.pol.leaseTTL())
	if err := os.WriteFile(w2.workerFile, []byte(`{"owner":"w2","lease_ttl":"500ms"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(w2.workerFile, old, old); err != nil {
		t.Fatal(err)
	}

	st, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Manifest == nil || st.Manifest.Name != "fig 6a" {
		t.Errorf("manifest = %+v", st.Manifest)
	}
	if len(st.Workers) != 2 || st.LiveWorkers() != 1 {
		t.Fatalf("workers = %+v, want w1 live and w2 dead", st.Workers)
	}
	if st.Workers[0].Owner != "w1" || !st.Workers[0].Live {
		t.Errorf("w1 status = %+v, want live", st.Workers[0])
	}
	if st.Workers[1].Owner != "w2" || st.Workers[1].Live {
		t.Errorf("w2 status = %+v, want dead (stale heartbeat)", st.Workers[1])
	}
	if len(st.Leases) != 1 || st.Leases[0].Key != "deadbeef" || st.Leases[0].Owner != "w1" {
		t.Errorf("leases = %+v", st.Leases)
	}
	if len(st.Failed) != 1 || st.Failed[0].Point != "flaky-point" || st.Failed[0].Attempts != 2 {
		t.Errorf("failed = %+v", st.Failed)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0].Point != "poison-point" {
		t.Errorf("quarantined = %+v", st.Quarantined)
	}
}

// TestLeaseContentionUnderRace hammers one key from several workers
// concurrently; exactly-once execution is NOT required (the store
// dedups), but the lease file must never be removed by a non-owner and
// every Execute must finish.
func TestLeaseContentionUnderRace(t *testing.T) {
	dir := t.TempDir()
	const workers = 4
	var ran atomic.Int32
	errs := make(chan error, workers)
	done := make(chan struct{})
	var cachedFlag atomic.Bool
	for i := 0; i < workers; i++ {
		w := testWorker(t, dir, fmt.Sprintf("w%d", i), nil)
		go func() {
			errs <- w.Execute(context.Background(), Task{
				Key:    "contended",
				Point:  "p",
				Cached: func() bool { return cachedFlag.Load() },
				Attempt: func(ctx context.Context) error {
					ran.Add(1)
					time.Sleep(10 * time.Millisecond)
					cachedFlag.Store(true)
					return nil
				},
			})
		}()
	}
	go func() {
		for i := 0; i < workers; i++ {
			if err := <-errs; err != nil {
				t.Errorf("Execute: %v", err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lease contention deadlocked")
	}
	if ran.Load() < 1 {
		t.Fatal("no worker ever ran the point")
	}
}
