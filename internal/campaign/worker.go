package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default policy values; see Policy.
const (
	DefaultLeaseTTL    = 30 * time.Second
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = 250 * time.Millisecond
)

// Policy carries the fault-tolerance knobs of one worker. The zero
// value is usable: 30s leases, no watchdog, 3 attempts per point, 250ms
// base backoff. The other timings derive from these two durations:
// held leases and the worker registration are heartbeated every
// LeaseTTL/4 (7.5s by default), a worker blocked on another worker's
// live lease re-checks the store and the lease every LeaseTTL/60
// (500ms), and backoff is capped at 40 × BaseBackoff (10s).
type Policy struct {
	// LeaseTTL is how long a lease may go without a heartbeat before
	// any worker may steal it. It must comfortably exceed the heartbeat
	// interval (LeaseTTL/4) and any expected scheduling stall; too short
	// only costs duplicate computation (the store deduplicates), never
	// correctness.
	LeaseTTL time.Duration
	// Watchdog bounds one attempt of one point: the attempt's context
	// is cancelled after this long (the engine loops poll it every 8192
	// simulated cycles), the failure counts toward quarantine, and the
	// lease is released so another worker can reclaim the point. 0
	// disables the watchdog.
	Watchdog time.Duration
	// MaxAttempts quarantines a point after this many failed attempts,
	// counted across workers through the shared failed/ log; <= 0 picks 3.
	MaxAttempts int
	// BaseBackoff shapes the exponential backoff between attempts:
	// attempt n waits BaseBackoff * 2^(n-1) capped at 40 × BaseBackoff,
	// with half-width jitter so colliding workers spread out.
	BaseBackoff time.Duration
}

func (p Policy) leaseTTL() time.Duration {
	if p.LeaseTTL > 0 {
		return p.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (p Policy) heartbeatEvery() time.Duration { return p.leaseTTL() / 4 }

func (p Policy) poll() time.Duration { return p.leaseTTL() / 60 }

func (p Policy) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (p Policy) baseBackoff() time.Duration {
	if p.BaseBackoff > 0 {
		return p.BaseBackoff
	}
	return DefaultBaseBackoff
}

func (p Policy) maxBackoff() time.Duration { return 40 * p.baseBackoff() }

// ErrDrained reports that the worker was asked to drain (SIGTERM):
// points it already held were finished and stored, the rest were left
// for the remaining workers.
var ErrDrained = errors.New("campaign: worker draining, point released for other workers")

// Quarantined reports a poison point: it failed MaxAttempts times
// (across all workers) and was taken out of rotation so the campaign
// can finish everything else. The full failure log, including panic
// payloads with stacks, is in quarantine/<key>.json.
type Quarantined struct {
	Point    string
	Key      string
	Attempts int
	LastErr  string
}

// Error implements error.
func (q *Quarantined) Error() string {
	return fmt.Sprintf("campaign: point %s quarantined after %d failed attempts: %s", q.Point, q.Attempts, q.LastErr)
}

// Worker is one campaign participant. Create with NewWorker, hand to
// harness.Sched.Campaign, Close when the sweep ends. All methods are
// safe for concurrent use by the scheduler's pool goroutines.
type Worker struct {
	dir        string
	owner      string
	host       string
	workerFile string
	pol        Policy

	mu   sync.Mutex
	held map[string]string // lease key -> path, for the heartbeater
	rng  *rand.Rand        // jitter; guarded by mu

	tombs    atomic.Int64 // unique suffixes for claim/steal files
	draining atomic.Bool
	stop     chan struct{}
	done     chan struct{}
}

// NewWorker joins (or starts) the campaign in dir with the given owner
// ID — unique per process, e.g. "host-pid" — creates the campaign
// layout, registers the worker, and starts its heartbeat loop.
func NewWorker(dir, owner string, pol Policy) (*Worker, error) {
	if owner == "" {
		return nil, errors.New("campaign: worker needs a nonempty owner ID")
	}
	if filepath.Base(owner) != owner || owner == "." || owner == ".." {
		return nil, fmt.Errorf("campaign: owner ID %q must be a plain filename component", owner)
	}
	for _, sub := range []string{leasesDir, workersDir, failedDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	host, _ := os.Hostname()
	w := &Worker{
		dir:        dir,
		owner:      owner,
		host:       host,
		workerFile: filepath.Join(dir, workersDir, owner+".json"),
		pol:        pol,
		held:       map[string]string{},
		rng:        rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<20)),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	body, err := json.Marshal(workerInfo{
		Owner:    owner,
		PID:      os.Getpid(),
		Host:     host,
		Started:  time.Now().UTC().Format(time.RFC3339),
		LeaseTTL: w.pol.leaseTTL().String(),
	})
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(w.workerFile, body); err != nil {
		return nil, err
	}
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.pol.heartbeatEvery())
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.heartbeat()
			}
		}
	}()
	return w, nil
}

// Owner returns the worker's ID (recorded in store records it produces).
func (w *Worker) Owner() string { return w.owner }

// Dir returns the campaign directory.
func (w *Worker) Dir() string { return w.dir }

// Drain puts the worker into graceful-shutdown mode: attempts already
// holding a lease run to completion (and store their results), every
// other Execute returns ErrDrained without claiming anything. Safe to
// call from a signal handler goroutine; idempotent.
func (w *Worker) Drain() { w.draining.Store(true) }

// Close stops the heartbeater and removes the worker registration.
// Leases still held (there are none after a clean sweep) keep their
// files and expire on their own.
func (w *Worker) Close() error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
	return os.Remove(w.workerFile)
}

// Task is one sweep point handed to Execute.
type Task struct {
	// Key is the point's canonical store key — the lease identity.
	Key string
	// Point is the human-readable point key, for status and failure logs.
	Point string
	// Cached reports whether the point's result is already available
	// (typically: consult the shared store, refreshing it to see other
	// workers' appends). Called before every claim attempt and while
	// waiting out another worker's lease. nil means never cached.
	Cached func() bool
	// Attempt computes and stores the point. The context carries the
	// watchdog deadline on top of the sweep context; the attempt must
	// poll it (the harness engine loops do). A panic must be captured
	// by the caller and returned as an error so it is retried and
	// eventually quarantined rather than killing the pool.
	Attempt func(ctx context.Context) error
}

// Execute runs one point under the campaign protocol: return early if
// the result is already available, otherwise claim the lease (waiting
// out or stealing other workers' leases as their heartbeats dictate),
// run the attempt under the watchdog, back off and retry on failure,
// and quarantine the point once it has failed MaxAttempts times
// anywhere in the campaign. The lease is released between retries so
// that a faster worker may take over, and heartbeats cover the whole
// attempt so a long point is never stolen from a live worker.
func (w *Worker) Execute(ctx context.Context, t Task) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if t.Cached != nil && t.Cached() {
			return nil
		}
		if q, err := w.readQuarantine(t.Key); err != nil {
			return err
		} else if q != nil {
			return q
		}
		if w.draining.Load() {
			return ErrDrained
		}
		l, err := w.acquire(t.Key, t.Point)
		if err != nil {
			return err
		}
		if l == nil {
			if err := w.sleep(ctx, w.pol.poll()); err != nil {
				return err
			}
			continue
		}
		err, final := w.runLeased(ctx, t, l)
		if final {
			return err
		}
	}
}

// runLeased runs one attempt under a held lease. final=false means a
// retryable failure: the lease has been released and the backoff has
// been slept, and the caller should rejoin the claim loop (where
// another worker may have taken over — Cached picks up its result).
func (w *Worker) runLeased(ctx context.Context, t Task, l *lease) (err error, final bool) {
	defer w.release(l) // idempotent; covers every return path
	actx, cancel := ctx, context.CancelFunc(func() {})
	if w.pol.Watchdog > 0 {
		actx, cancel = context.WithTimeout(ctx, w.pol.Watchdog)
	}
	aerr := t.Attempt(actx)
	cancel()
	if aerr == nil {
		w.clearFailure(t.Key)
		return nil, true
	}
	if ctx.Err() != nil {
		// The sweep itself was cancelled (Ctrl-C, first fatal error) —
		// not a point failure; don't burn an attempt on it.
		return aerr, true
	}
	attempts := w.priorAttempts(t.Key) + 1
	f := w.recordFailure(t, attempts, aerr)
	if attempts >= w.pol.maxAttempts() {
		if qerr := w.quarantine(f); qerr != nil {
			return qerr, true
		}
		last, _, _ := strings.Cut(f.LastErr, "\n") // panic payloads carry stacks
		return &Quarantined{Point: t.Point, Key: t.Key, Attempts: attempts, LastErr: last}, true
	}
	w.release(l) // free the point for other workers before backing off
	if serr := w.sleep(ctx, w.backoff(attempts)); serr != nil {
		return serr, true
	}
	return nil, false
}

// backoff returns the post-failure wait before attempt n+1:
// Base * 2^(n-1) capped at Max, jittered to [1/2, 1] of that.
func (w *Worker) backoff(attempts int) time.Duration {
	d := w.pol.baseBackoff()
	for i := 1; i < attempts && d < w.pol.maxBackoff(); i++ {
		d *= 2
	}
	if d > w.pol.maxBackoff() {
		d = w.pol.maxBackoff()
	}
	w.mu.Lock()
	jit := time.Duration(w.rng.Int63n(int64(d)/2 + 1))
	w.mu.Unlock()
	return d - jit
}

// sleep waits d or until the context dies.
func (w *Worker) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (w *Worker) failedPath(key string) string {
	return filepath.Join(w.dir, failedDir, key+".json")
}

func (w *Worker) quarantinePath(key string) string {
	return filepath.Join(w.dir, quarantineDir, key+".json")
}

// readQuarantine returns the point's quarantine verdict, if any.
func (w *Worker) readQuarantine(key string) (*Quarantined, error) {
	b, err := os.ReadFile(w.quarantinePath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var f Failure
	if err := json.Unmarshal(b, &f); err != nil {
		// A torn quarantine write (killed mid-rename is impossible, but a
		// full disk is not): treat as not quarantined and let the retry
		// path rewrite it.
		return nil, nil
	}
	last, _, _ := strings.Cut(f.LastErr, "\n")
	return &Quarantined{Point: f.Point, Key: f.Key, Attempts: f.Attempts, LastErr: last}, nil
}

// priorAttempts reads the shared attempt count for a point, so retries
// accumulate across workers and reclaims.
func (w *Worker) priorAttempts(key string) int {
	b, err := os.ReadFile(w.failedPath(key))
	if err != nil {
		return 0
	}
	var f Failure
	if json.Unmarshal(b, &f) != nil {
		return 0
	}
	return f.Attempts
}

// recordFailure updates the point's attempt log (held under the lease,
// so there is no write contention).
func (w *Worker) recordFailure(t Task, attempts int, aerr error) Failure {
	f := Failure{Point: t.Point, Key: t.Key}
	if b, err := os.ReadFile(w.failedPath(t.Key)); err == nil {
		_ = json.Unmarshal(b, &f)
	}
	f.Attempts = attempts
	f.LastErr = aerr.Error()
	f.Errors = append([]string{aerr.Error()}, f.Errors...)
	if len(f.Errors) > maxErrorHistory {
		f.Errors = f.Errors[:maxErrorHistory]
	}
	f.Owner = w.owner
	f.Updated = time.Now().UTC().Format(time.RFC3339)
	if b, err := json.Marshal(f); err == nil {
		_ = writeFileAtomic(w.failedPath(t.Key), b)
	}
	return f
}

// clearFailure forgets a point's attempt log after a success.
func (w *Worker) clearFailure(key string) {
	os.Remove(w.failedPath(key))
}

// quarantine moves a point's failure log into quarantine, taking it
// out of rotation for every worker.
func (w *Worker) quarantine(f Failure) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(w.quarantinePath(f.Key), b); err != nil {
		return err
	}
	w.clearFailure(f.Key)
	return nil
}

// Liveness summarizes the campaign's workers for progress lines: how
// many have a fresh heartbeat and the oldest heartbeat age among them.
func (w *Worker) Liveness() (live int, oldest time.Duration) {
	st, err := Scan(w.dir)
	if err != nil {
		return 0, 0
	}
	for _, ws := range st.Workers {
		if !ws.Live {
			continue
		}
		live++
		if age := time.Duration(ws.HeartbeatAge * float64(time.Second)); age > oldest {
			oldest = age
		}
	}
	return live, oldest
}
