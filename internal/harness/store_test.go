package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diam2/internal/store"
)

// This file tests the scheduler/store integration: resumed sweeps must
// be byte-identical to cold serial runs, cache hits must land in the
// results by submission index like any other point, and the telemetry
// and -force escape hatches must bypass lookups without losing
// recording.

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeEqScale trims eqScale further still: the resume tests run the
// same figure three times over (cold, populate, resume), and identity
// between those runs does not depend on cycle count.
func storeEqScale(workers int) Scale {
	sc := eqScale(workers)
	sc.Cycles = 3000
	sc.Warmup = 600
	return sc
}

// storeScale is storeEqScale with a store attached.
func storeScale(workers int, st *store.Store) Scale {
	sc := storeEqScale(workers)
	sc.Sched.Store = st
	return sc
}

// TestStoreWarmResumeByteIdentity is the acceptance criterion: a
// campaign interrupted after some points (here: a sub-sweep covering
// only load 0.3) and resumed with a racing worker pool must render the
// exact bytes of a cold serial run, recomputing only the missing
// points.
func TestStoreWarmResumeByteIdentity(t *testing.T) {
	presets := SmallPresets()[1:2]
	loads := []float64{0.3, 0.8}

	coldTab, err := Fig6Oblivious(presets, PatUNI, loads, storeEqScale(1))
	if err != nil {
		t.Fatal(err)
	}
	cold := renderAll(t, coldTab)

	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()

	// "Interrupted" campaign: only the load-0.3 points completed.
	if _, err := Fig6Oblivious(presets, PatUNI, loads[:1], storeScale(2, st)); err != nil {
		t.Fatal(err)
	}
	partial := st.Stats().Puts
	if partial == 0 {
		t.Fatal("partial sweep recorded nothing")
	}
	missesBefore := st.Stats().Misses

	// Resume the full sweep on a racing pool.
	warmTab, err := Fig6Oblivious(presets, PatUNI, loads, storeScale(4, st))
	if err != nil {
		t.Fatal(err)
	}
	if warm := renderAll(t, warmTab); warm != cold {
		t.Errorf("warm resume differs from cold serial run\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	s := st.Stats()
	if s.Hits != partial {
		t.Errorf("resume reused %d points, want %d (every previously completed point)", s.Hits, partial)
	}
	if recomputed, missed := s.Puts-partial, s.Misses-missesBefore; recomputed != missed {
		t.Errorf("resume recomputed %d points but missed %d", recomputed, missed)
	}

	// A second resume is a full replay: no point runs at all.
	putsBefore := st.Stats().Puts
	replayTab, err := Fig6Oblivious(presets, PatUNI, loads, storeScale(4, st))
	if err != nil {
		t.Fatal(err)
	}
	if replay := renderAll(t, replayTab); replay != cold {
		t.Errorf("all-hits replay differs from cold run")
	}
	if s := st.Stats(); s.Puts != putsBefore {
		t.Errorf("all-hits replay appended %d new records", s.Puts-putsBefore)
	}
}

// TestStoreSatUGALKeying: diam2sim -ni/-c override the adaptive
// configuration without changing the saturation point key strings, so
// the canonical key must pin the resolved config — a rerun with a
// different nI must recompute, never replay the old run's results.
// Oblivious kinds ignore the config and are keyed without it.
func TestStoreSatUGALKeying(t *testing.T) {
	p := SmallPresets()[1] // MLFM: generic UGAL cost constant
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	loads := []float64{0.3}
	sat := func(kind AlgKind, ugal UGALConfig) {
		t.Helper()
		if _, _, err := SaturationPoint(tp, kind, ugal, PatUNI, loads, 0.05, storeScale(1, st)); err != nil {
			t.Fatal(err)
		}
	}
	sat(AlgA, UGALConfig{NI: 1, C: 2})
	if s := st.Stats(); s.Puts != 1 || s.Hits != 0 {
		t.Fatalf("first adaptive ladder: %+v, want one computed point", s)
	}
	sat(AlgA, UGALConfig{NI: 2, C: 2}) // same point key string, different config
	if s := st.Stats(); s.Puts != 2 || s.Hits != 0 {
		t.Fatalf("changed nI replayed a stale result: %+v", s)
	}
	sat(AlgA, UGALConfig{NI: 1, C: 2}) // back to the first config: replay
	if s := st.Stats(); s.Puts != 2 || s.Hits != 1 {
		t.Fatalf("identical rerun did not replay: %+v", s)
	}
	// Oblivious routing never reads the adaptive config, so changing it
	// must not force a recompute there.
	sat(AlgMIN, UGALConfig{NI: 1, C: 2})
	sat(AlgMIN, UGALConfig{NI: 8, C: 4})
	if s := st.Stats(); s.Puts != 3 || s.Hits != 2 {
		t.Fatalf("oblivious ladder keyed on the unused adaptive config: %+v", s)
	}
}

// TestStoreMixedHitMissOrdering drives Collect with half the points
// cached and the other half deliberately slow and racing, and checks
// the results are still strictly in submission order.
func TestStoreMixedHitMissOrdering(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()

	const n = 12
	mkPoints := func(slowMisses bool) []Point[int] {
		pts := make([]Point[int], n)
		for i := 0; i < n; i++ {
			i := i
			pts[i] = Point[int]{
				Key: fmt.Sprintf("mixed|i=%03d", i),
				Run: func(ctx context.Context, seed int64) (int, error) {
					if slowMisses {
						// Scramble completion: earlier submissions
						// finish later.
						time.Sleep(time.Duration(n-i) * 3 * time.Millisecond)
					}
					return i * 10, nil
				},
			}
		}
		return pts
	}

	// Prepopulate the even points only.
	all := mkPoints(false)
	even := make([]Point[int], 0, n/2)
	for i := 0; i < n; i += 2 {
		even = append(even, all[i])
	}
	if _, err := Collect(storeScale(2, st), even); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Puts; got != int64(len(even)) {
		t.Fatalf("prepopulation recorded %d points, want %d", got, len(even))
	}

	got, err := Collect(storeScale(4, st), mkPoints(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("returned %d points, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*10 {
			t.Errorf("point %d returned %d, want %d", i, v, i*10)
		}
	}
	s := st.Stats()
	if s.Hits < int64(len(even)) {
		t.Errorf("cached points were recomputed: %d hits, want >= %d", s.Hits, len(even))
	}
}

// TestStoreCancelMidSweep cancels from the progress callback while
// later points (a mix of hits and slow misses) are still in flight: the
// sweep must return the cancellation error, not hang or return stale
// results.
func TestStoreCancelMidSweep(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()

	const n = 10
	mk := func() []Point[int] {
		pts := make([]Point[int], n)
		for i := 0; i < n; i++ {
			i := i
			pts[i] = Point[int]{
				Key: fmt.Sprintf("cancel|i=%03d", i),
				Run: func(ctx context.Context, seed int64) (int, error) {
					select {
					case <-time.After(5 * time.Millisecond):
					case <-ctx.Done():
						return 0, ctx.Err()
					}
					return i, nil
				},
			}
		}
		return pts
	}
	// Cache the first half so the cancelled resume sees mixed hits.
	if _, err := Collect(storeScale(2, st), mk()[:n/2]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := storeScale(3, st)
	sc.Sched.Ctx = ctx
	var finished atomic.Int32
	sc.Sched.OnPoint = func(int, int, string, time.Duration) {
		if finished.Add(1) == 2 {
			cancel()
		}
	}
	got, err := Collect(sc, mk())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if got != nil {
		t.Fatalf("cancelled sweep returned results %v", got)
	}
}

// TestStoreTelemetryBypass: a sweep collecting telemetry must not use
// cached results (a hit produces no bundle), even over a fully warm
// store — but it still records.
func TestStoreTelemetryBypass(t *testing.T) {
	presets := SmallPresets()[1:2]
	loads := []float64{0.3}
	st := openTestStore(t, t.TempDir())
	defer st.Close()

	if _, err := Fig6Oblivious(presets, PatUNI, loads, storeScale(1, st)); err != nil {
		t.Fatal(err)
	}
	warm := st.Stats().Puts

	sink := &TelemetrySink{}
	sc := storeScale(2, st)
	sc.Telemetry = TelemetryPlan{Sink: sink}
	if _, err := Fig6Oblivious(presets, PatUNI, loads, sc); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Hits != 0 {
		t.Errorf("telemetry sweep reused %d cached points; lookups must be bypassed", s.Hits)
	}
	if s.Puts != 2*warm {
		t.Errorf("telemetry sweep recorded %d points total, want %d (still records)", s.Puts, 2*warm)
	}
	if sink.Len() != int(warm) {
		t.Errorf("sink holds %d bundles, want one per point (%d)", sink.Len(), warm)
	}
}

// TestStoreForceRecomputes: -force bypasses lookups but records, and
// the forced rerun renders identically (determinism crosscheck through
// the store path).
func TestStoreForceRecomputes(t *testing.T) {
	presets := SmallPresets()[1:2]
	loads := []float64{0.3}
	st := openTestStore(t, t.TempDir())
	defer st.Close()

	first, err := Fig6Oblivious(presets, PatUNI, loads, storeScale(1, st))
	if err != nil {
		t.Fatal(err)
	}
	warm := st.Stats().Puts

	sc := storeScale(2, st)
	sc.Sched.Force = true
	second, err := Fig6Oblivious(presets, PatUNI, loads, sc)
	if err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Hits != 0 {
		t.Errorf("-force reused %d cached points", s.Hits)
	}
	if s.Puts != 2*warm {
		t.Errorf("-force recorded %d points total, want %d", s.Puts, 2*warm)
	}
	if a, b := renderAll(t, first), renderAll(t, second); a != b {
		t.Errorf("forced recompute differs from first run\n--- first ---\n%s\n--- forced ---\n%s", a, b)
	}
}

// TestStoreCorruptTailRecovery: a record torn by a kill mid-append is
// skipped at reopen, the resume recomputes exactly that point, and the
// output still matches the cold run.
func TestStoreCorruptTailRecovery(t *testing.T) {
	presets := SmallPresets()[1:2]
	loads := []float64{0.3, 0.8}

	coldTab, err := Fig6Oblivious(presets, PatUNI, loads, storeEqScale(1))
	if err != nil {
		t.Fatal(err)
	}
	cold := renderAll(t, coldTab)

	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := Fig6Oblivious(presets, PatUNI, loads, storeScale(1, st)); err != nil {
		t.Fatal(err)
	}
	total := st.Stats().Puts
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, b[:len(b)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	if c := st2.Corruptions(); len(c) != 1 {
		t.Fatalf("reopen after torn tail reports %v, want one corruption", c)
	}
	warmTab, err := Fig6Oblivious(presets, PatUNI, loads, storeScale(4, st2))
	if err != nil {
		t.Fatal(err)
	}
	if warm := renderAll(t, warmTab); warm != cold {
		t.Errorf("resume over torn store differs from cold run")
	}
	s := st2.Stats()
	if s.Puts != 1 || s.Hits != total-1 {
		t.Errorf("resume recomputed %d points with %d hits, want exactly 1 recompute and %d hits",
			s.Puts, s.Hits, total-1)
	}
}

// TestLookup pins the one fetch-and-decode site: a recorded point is a
// hit under its canonical key, an unrecorded one a miss, a payload
// that no longer decodes as the asked-for type a miss, and a point
// that pins a UGAL configuration keys apart from the same key string
// unpinned.
func TestLookup(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	sc := storeScale(1, st)
	pt := Point[LoadPoint]{
		Key: "lookup|a",
		Run: func(context.Context, int64) (LoadPoint, error) { return LoadPoint{Load: 0.5, Throughput: 0.25}, nil },
	}
	if _, key, ok := Lookup(sc, pt); ok || key != sc.CanonicalPointKey(pt.Key) {
		t.Fatalf("empty store: ok=%v key=%s, want a miss under %s", ok, key, sc.CanonicalPointKey(pt.Key))
	}
	if _, err := Collect(sc, []Point[LoadPoint]{pt}); err != nil {
		t.Fatal(err)
	}
	got, key, ok := Lookup(sc, pt)
	if !ok || got.Throughput != 0.25 || key != sc.CanonicalPointKey(pt.Key) {
		t.Errorf("recorded point: got %+v key=%s ok=%v", got, key, ok)
	}
	if _, _, ok := Lookup(sc, Point[LoadPoint]{Key: "lookup|b"}); ok {
		t.Error("unrecorded point is a hit")
	}
	// The record holds a JSON object; asked for as a number it no
	// longer decodes, which must read as a miss, not an error or a
	// zero-valued hit.
	if v, driftKey, ok := Lookup(sc, Point[float64]{Key: pt.Key}); ok || v != 0 || driftKey != key {
		t.Errorf("drifted payload: v=%v key=%s ok=%v, want a miss under the same key", v, driftKey, ok)
	}
	pinned := pt
	pinned.UGAL = &UGALConfig{NI: 4, C: 2}
	if _, pinnedKey, ok := Lookup(sc, pinned); ok || pinnedKey == key {
		t.Errorf("UGAL-pinned point: ok=%v key=%s, want a miss under a different key than %s", ok, pinnedKey, key)
	}
}

// TestStoredPanicNotRecorded: a point that panics in a plain
// (non-campaign) store sweep surfaces as the scheduler's usual
// "point <key>: panicked:" error and leaves nothing in the store.
func TestStoredPanicNotRecorded(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	for _, workers := range []int{1, 3} {
		points := []Point[int]{
			{Key: "ok", Run: func(context.Context, int64) (int, error) { return 1, nil }},
			{Key: "boom", Run: func(context.Context, int64) (int, error) { panic("kaboom") }},
		}
		_, err := Collect(storeScale(workers, st), points)
		var pe *PanicError
		if !errors.As(err, &pe) || !strings.HasPrefix(err.Error(), "point boom: panicked: kaboom") {
			t.Fatalf("workers=%d: err = %v, want point boom: panicked: kaboom", workers, err)
		}
		if _, _, ok := Lookup(storeScale(1, st), points[1]); ok {
			t.Errorf("workers=%d: the panicking point was recorded", workers)
		}
	}
}
