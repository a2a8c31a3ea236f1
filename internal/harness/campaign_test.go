package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diam2/internal/campaign"
	"diam2/internal/store"
)

// This file tests the scheduler/campaign integration: multiple worker
// processes (modeled here as multiple campaign.Workers sharing one
// store directory) must converge on the same results as a
// single-process run, with failures retried, hung points
// watchdog-cancelled and reclaimed, poison points quarantined without
// killing the sweep, and drained workers handing their points on.
// chaos_test.go covers the same protocol with real SIGKILLed worker
// subprocesses.

// campaignStore opens dir as a cooperating campaign writer.
func campaignStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logf: t.Logf, SharedLock: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fastPolicy keeps campaign tests quick: a short backoff, and a TTL
// short enough for quick busy-lease polls (TTL/60) yet comfortably
// above its heartbeat interval (TTL/4) and any scheduling stall, so
// leases are only stolen where a test arranges it.
func fastPolicy() campaign.Policy {
	return campaign.Policy{
		LeaseTTL:    1500 * time.Millisecond,
		BaseBackoff: 2 * time.Millisecond,
	}
}

// campaignScale builds a Scale wired to one campaign worker.
func campaignScale(t *testing.T, dir, owner string, workers int, pol campaign.Policy) (Scale, *campaign.Worker) {
	t.Helper()
	st := campaignStore(t, dir)
	t.Cleanup(func() { st.Close() })
	w, err := campaign.NewWorker(campaign.DirFor(dir), owner, pol)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	sc := schedScale(1, Sched{Workers: workers, Store: st, Campaign: w})
	return sc, w
}

func TestCampaignRequiresStore(t *testing.T) {
	w, err := campaign.NewWorker(campaign.DirFor(t.TempDir()), "w1", campaign.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sc := schedScale(1, Sched{Campaign: w})
	_, err = Collect(sc, []Point[int]{{Key: "p", Run: func(context.Context, int64) (int, error) { return 0, nil }}})
	if err == nil || !strings.Contains(err.Error(), "requires Sched.Store") {
		t.Fatalf("Collect with Campaign but no Store = %v, want a refusal", err)
	}
}

// TestRunPointsErrorNamesPoint: the first worker error surfaced by
// Collect must carry the point key that produced it, for every worker
// count.
func TestRunPointsErrorNamesPoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		points := []Point[int]{
			{Key: "fine|0", Run: func(context.Context, int64) (int, error) { return 1, nil }},
			{Key: "broken|1", Run: func(context.Context, int64) (int, error) { return 0, errors.New("kaboom") }},
		}
		_, err := Collect(schedScale(1, Sched{Workers: workers}), points)
		if err == nil {
			t.Fatalf("workers=%d: sweep with a failing point succeeded", workers)
		}
		if !strings.Contains(err.Error(), "point broken|1") || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("workers=%d: error %q does not name the failing point", workers, err)
		}
	}
}

// TestCampaignFailsTwiceThenSucceeds: a transiently failing point is
// retried with backoff and its result lands in the store and the
// returned results like any healthy point.
func TestCampaignFailsTwiceThenSucceeds(t *testing.T) {
	dir := t.TempDir()
	pol := fastPolicy()
	pol.MaxAttempts = 5
	sc, w := campaignScale(t, dir, "w1", 2, pol)
	var calls atomic.Int32
	points := []Point[float64]{
		{Key: "flaky|0", Run: func(_ context.Context, seed int64) (float64, error) {
			if calls.Add(1) <= 2 {
				return 0, fmt.Errorf("transient %d", calls.Load())
			}
			return float64(seed&0xff) + 0.5, nil
		}},
		{Key: "steady|1", Run: func(_ context.Context, seed int64) (float64, error) {
			return float64(seed&0xff) + 1.5, nil
		}},
	}
	got, err := Collect(sc, points)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("flaky point ran %d times, want 3", calls.Load())
	}
	for i, off := range []float64{0.5, 1.5} {
		if want := float64(DeriveSeed(1, points[i].Key)&0xff) + off; got[i] != want {
			t.Errorf("point %s returned %v, want %v", points[i].Key, got[i], want)
		}
	}
	recs := sc.Sched.Store.Records()
	if len(recs) != 2 {
		t.Fatalf("store has %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Worker != w.Owner() {
			t.Errorf("record %s carries worker %q, want %q", rec.Point, rec.Worker, w.Owner())
		}
	}
	// The retries were real failures; the shared failure log must be
	// clean again after the success.
	st, err := campaign.Scan(campaign.DirFor(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 0 || len(st.Quarantined) != 0 {
		t.Errorf("campaign left failure state behind: failed=%v quarantined=%v", st.Failed, st.Quarantined)
	}
}

// TestCampaignWatchdogReclaim is the acceptance scenario: worker 1
// hangs on a point, its watchdog cancels the attempt and releases the
// lease, and worker 2 — polling the same campaign — claims the point
// and computes it. Worker 1 then picks the result up from the store.
func TestCampaignWatchdogReclaim(t *testing.T) {
	dir := t.TempDir()
	pol1 := fastPolicy()
	pol1.Watchdog = 60 * time.Millisecond
	pol1.MaxAttempts = 100 // the hang repeats; quarantine must not preempt the reclaim
	pol1.BaseBackoff = 200 * time.Millisecond
	sc1, _ := campaignScale(t, dir, "w1", 1, pol1)
	sc2, w2 := campaignScale(t, dir, "w2", 1, fastPolicy())

	var hangs atomic.Int32
	mkPoints := func(hang bool) []Point[float64] {
		return []Point[float64]{{Key: "reclaim|0", Run: func(ctx context.Context, seed int64) (float64, error) {
			if hang {
				hangs.Add(1)
				<-ctx.Done() // engine loops poll ctx; model a hung point that still honors it
				return 0, ctx.Err()
			}
			time.Sleep(30 * time.Millisecond)
			return 42.5, nil
		}}}
	}

	errc := make(chan error, 1)
	go func() {
		v, err := Collect(sc1, mkPoints(true))
		if err == nil && v[0] != 42.5 {
			err = fmt.Errorf("w1 returned %v, want 42.5", v[0])
		}
		errc <- err
	}()
	// Let w1 claim the point and hang before w2 joins, so the reclaim
	// direction is deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for hangs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("w1 never started its hanging attempt")
		}
		time.Sleep(5 * time.Millisecond)
	}
	v2, err := Collect(sc2, mkPoints(false))
	if err != nil {
		t.Fatalf("w2 Collect: %v", err)
	}
	if v2[0] != 42.5 {
		t.Fatalf("w2 returned %v, want 42.5", v2[0])
	}
	if err := <-errc; err != nil {
		t.Fatalf("w1 Collect: %v", err)
	}
	if hangs.Load() < 1 {
		t.Error("the hanging attempt never ran")
	}
	recs := sc2.Sched.Store.Records()
	if len(recs) != 1 {
		t.Fatalf("store has %d records, want 1", len(recs))
	}
	if recs[0].Worker != w2.Owner() {
		t.Errorf("point computed by %q, want the reclaiming worker %q", recs[0].Worker, w2.Owner())
	}
}

// TestCampaignLeaseExpiryReclaim: a worker that dies mid-point (here:
// heartbeats stopped, attempt parked) loses its lease after the TTL
// and another worker steals and completes the point. Runs under -race
// in CI like the rest of the suite.
func TestCampaignLeaseExpiryReclaim(t *testing.T) {
	dir := t.TempDir()
	st1 := campaignStore(t, dir)
	defer st1.Close()
	deadPol := campaign.Policy{LeaseTTL: 300 * time.Millisecond}
	w1, err := campaign.NewWorker(campaign.DirFor(dir), "w1", deadPol)
	if err != nil {
		t.Fatal(err)
	}

	// The contended identity is the point's canonical store key — the
	// same key Collect will lease below.
	sc2, w2 := campaignScale(t, dir, "w2", 1, campaign.Policy{LeaseTTL: 300 * time.Millisecond})
	key := sc2.pointConfig("expire|0").Key()

	park := make(chan struct{})
	w1done := make(chan error, 1)
	go func() {
		w1done <- w1.Execute(context.Background(), campaign.Task{
			Key:   key,
			Point: "expire|0",
			Attempt: func(ctx context.Context) error {
				<-park // the "process" is wedged: no progress, and (below) no heartbeats
				return nil
			},
		})
	}()
	// Wait for w1 to hold the lease, then "kill" it: Close stops its
	// heartbeater, so the lease mtime freezes and ages past the TTL.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cst, err := campaign.Scan(campaign.DirFor(dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(cst.Leases) == 1 && cst.Leases[0].Owner == "w1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("w1 never claimed the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Collect(sc2, []Point[float64]{{Key: "expire|0", Run: func(context.Context, int64) (float64, error) {
		return 7.25, nil
	}}})
	if err != nil {
		t.Fatalf("w2 Collect: %v", err)
	}
	if got[0] != 7.25 {
		t.Fatalf("w2 returned %v, want 7.25", got[0])
	}
	recs := sc2.Sched.Store.Records()
	if len(recs) != 1 || recs[0].Worker != w2.Owner() {
		t.Fatalf("records = %+v, want one record from the stealing worker", recs)
	}
	close(park) // un-wedge the zombie; its release must not disturb anything
	<-w1done
}

// TestCampaignQuarantineContinuesSweep: a poison point is quarantined
// after MaxAttempts and the sweep carries on — every healthy point is
// computed, stored and returned — with the quarantine folded into the
// final error.
func TestCampaignQuarantineContinuesSweep(t *testing.T) {
	for _, workers := range []int{1, 3} {
		dir := t.TempDir()
		pol := fastPolicy()
		pol.MaxAttempts = 2
		sc, _ := campaignScale(t, dir, "w1", workers, pol)
		points := []Point[float64]{
			{Key: "ok|0", Run: func(context.Context, int64) (float64, error) { return 1, nil }},
			{Key: "poison|1", Run: func(context.Context, int64) (float64, error) { return 0, errors.New("always broken") }},
			{Key: "ok|2", Run: func(context.Context, int64) (float64, error) { return 3, nil }},
		}
		got, err := Collect(sc, points)
		if err == nil {
			t.Fatalf("workers=%d: sweep with a poison point returned nil error", workers)
		}
		var q *campaign.Quarantined
		if !errors.As(err, &q) {
			t.Fatalf("workers=%d: error %v does not unwrap to *campaign.Quarantined", workers, err)
		}
		if q.Point != "poison|1" || q.Attempts != 2 {
			t.Errorf("workers=%d: quarantine verdict = %+v", workers, q)
		}
		if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 3 {
			t.Errorf("workers=%d: healthy points not returned: %v", workers, got)
		}
		if n := sc.Sched.Store.Len(); n != 2 {
			t.Errorf("workers=%d: store has %d records, want the 2 healthy points", workers, n)
		}
		cst, serr := campaign.Scan(campaign.DirFor(dir))
		if serr != nil {
			t.Fatal(serr)
		}
		if len(cst.Quarantined) != 1 || cst.Quarantined[0].Point != "poison|1" {
			t.Errorf("workers=%d: quarantine listing = %+v", workers, cst.Quarantined)
		}
	}
}

// TestCampaignDrainMidSweep: SIGTERM semantics. A drain triggered while
// a leased point runs lets that point finish and store; the unclaimed
// remainder comes back as ErrDrained, not as lost work.
func TestCampaignDrainMidSweep(t *testing.T) {
	dir := t.TempDir()
	sc, w := campaignScale(t, dir, "w1", 1, fastPolicy())
	points := []Point[float64]{
		{Key: "first|0", Run: func(context.Context, int64) (float64, error) {
			w.Drain() // the SIGTERM lands while this point holds its lease
			return 10, nil
		}},
		{Key: "second|1", Run: func(context.Context, int64) (float64, error) { return 20, nil }},
		{Key: "third|2", Run: func(context.Context, int64) (float64, error) { return 30, nil }},
	}
	got, err := Collect(sc, points)
	if !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("drained sweep = %v, want ErrDrained in the chain", err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("returned %v, want only the leased point (index 0)", got)
	}
	if n := sc.Sched.Store.Len(); n != 1 {
		t.Fatalf("store has %d records, want 1 (the in-flight point finished and stored)", n)
	}
	// The released points left no leases behind for the next worker to
	// wait out.
	cst, err := campaign.Scan(campaign.DirFor(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(cst.Leases) != 0 {
		t.Fatalf("drain left leases behind: %+v", cst.Leases)
	}
}

// TestCampaignTwoWorkersSplitSweep: the bread-and-butter case — two
// workers race through one sweep, every point is computed exactly once
// in the rendered sense, and both return identical in-order results.
func TestCampaignTwoWorkersSplitSweep(t *testing.T) {
	dir := t.TempDir()
	const n = 12
	mkPoints := func() []Point[float64] {
		pts := make([]Point[float64], n)
		for i := range pts {
			pts[i] = Point[float64]{
				Key: fmt.Sprintf("split|%02d", i),
				Run: func(_ context.Context, seed int64) (float64, error) {
					time.Sleep(time.Duration(seed&7) * time.Millisecond)
					return float64(seed&0xffff) * 0.5, nil
				},
			}
		}
		return pts
	}
	sc1, _ := campaignScale(t, dir, "w1", 2, fastPolicy())
	sc2, _ := campaignScale(t, dir, "w2", 2, fastPolicy())
	run := func(sc Scale) ([]float64, error) { return Collect(sc, mkPoints()) }
	type res struct {
		out []float64
		err error
	}
	c1 := make(chan res, 1)
	go func() { out, err := run(sc1); c1 <- res{out, err} }()
	out2, err2 := run(sc2)
	r1 := <-c1
	if r1.err != nil || err2 != nil {
		t.Fatalf("worker errors: w1=%v w2=%v", r1.err, err2)
	}
	// Both result slices must match each other and the derived-seed
	// ground truth exactly.
	for i := 0; i < n; i++ {
		want := float64(DeriveSeed(1, fmt.Sprintf("split|%02d", i))&0xffff) * 0.5
		if r1.out[i] != want || out2[i] != want {
			t.Fatalf("point %d: w1=%v w2=%v want %v", i, r1.out[i], out2[i], want)
		}
	}
	// The two store handles saw overlapping but complete views; a fresh
	// read-only open must hold exactly n records' keys.
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != n {
		t.Fatalf("merged store has %d live records, want %d", st.Len(), n)
	}
}
