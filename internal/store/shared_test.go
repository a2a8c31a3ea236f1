package store

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// This file tests the multi-writer store surface added for campaigns:
// the advisory flock (shared for cooperating campaign workers,
// exclusive for everything else), Refresh tailing other writers'
// segments, and gc refusing to rewrite a store that a campaign still
// shares.

func mustOpenShared(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Logf: t.Logf, Mode: Shared})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestExclusiveLockConflicts: two plain writers must not share a
// store; the second open fails fast with the remedy in the message.
func TestExclusiveLockConflicts(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	defer st.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second exclusive open of a locked store succeeded")
	} else if !strings.Contains(err.Error(), "another process holds it") {
		t.Fatalf("lock conflict error %q does not name the cause", err)
	}
	// Shared writers cannot sneak past an exclusive holder either.
	if _, err := Open(dir, Options{Mode: Shared}); err == nil {
		t.Fatal("shared open of an exclusively locked store succeeded")
	}
}

// TestSharedCoexists: campaign workers take the lock shared, so
// any number may hold the store at once — but an exclusive writer (a
// plain sweep, gc) must be refused while they do, and vice versa.
func TestSharedCoexists(t *testing.T) {
	dir := t.TempDir()
	a := mustOpenShared(t, dir)
	defer a.Close()
	b := mustOpenShared(t, dir)
	defer b.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("exclusive open succeeded while campaign workers hold the store")
	}
	// Read-only opens take no lock at all and always work.
	ro, err := Open(dir, Options{Mode: ReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
	// Once every shared holder closes, an exclusive writer gets in.
	a.Close()
	b.Close()
	ex := mustOpen(t, dir)
	ex.Close()
}

// TestRefreshSeesOtherWriters: records appended through one shared
// handle become visible to another after Refresh — the mechanism a
// campaign worker uses to treat a peer's results as cache hits.
func TestRefreshSeesOtherWriters(t *testing.T) {
	dir := t.TempDir()
	a := mustOpenShared(t, dir)
	defer a.Close()
	b := mustOpenShared(t, dir)
	defer b.Close()

	recs := make([]Record, 6)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	for _, r := range recs[:3] {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := b.Get(recs[0].Key); ok {
		t.Fatal("b saw a's record without Refresh")
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:3] {
		got, ok := b.Get(r.Key)
		if !ok || string(got.Payload) != string(r.Payload) {
			t.Fatalf("after Refresh, b.Get(%s) = %+v, %v", ShortKey(r.Key), got, ok)
		}
	}
	// Refresh is incremental: a second batch from a — and a batch from
	// b itself — must not confuse the cursors.
	for _, r := range recs[3:] {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Put(testRecord(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 7 {
		t.Fatalf("b sees %d records, want 7 (6 from a + 1 own)", b.Len())
	}
	// And a can pick b's record up the same way.
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 7 {
		t.Fatalf("a sees %d records after refresh, want 7", a.Len())
	}
}

// TestRefreshAllocatesTailSize: a Refresh that picks up one peer
// append reads it with a buffer the tail's size, not the 1 MiB a whole
// segment gets; a campaign refreshes on every local miss.
func TestRefreshAllocatesTailSize(t *testing.T) {
	dir := t.TempDir()
	a := mustOpenShared(t, dir)
	defer a.Close()
	b := mustOpenShared(t, dir)
	defer b.Close()
	const n = 20
	var allocated uint64
	for i := range n {
		if err := a.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := b.Refresh(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	if b.Len() != n {
		t.Fatalf("b sees %d records, want %d", b.Len(), n)
	}
	if mean := allocated / n; mean >= 64<<10 {
		t.Errorf("Refresh after one peer append allocates %d bytes, want under 64 KiB", mean)
	}
}

// TestRefreshToleratesTornTail: a peer SIGKILLed mid-append leaves an
// unterminated last line. In shared mode that is indistinguishable
// from an in-flight append, so Refresh must skip it without reporting
// corruption — and must still pick up complete records before it.
func TestRefreshToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	a := mustOpenShared(t, dir)
	defer a.Close()
	b := mustOpenShared(t, dir)
	defer b.Close()
	if err := a.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// Tear a's active segment the way SIGKILL mid-write would: a second
	// record line cut off before its newline.
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want 1", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"key\":\"torn"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("b sees %d records, want the 1 complete one", b.Len())
	}
	if c := b.Corruptions(); len(c) != 0 {
		t.Fatalf("shared refresh reported a torn in-flight tail as corruption: %v", c)
	}
}

// TestGCRefusedShared: gc rewrites segments in place, which is only
// safe with the store locked exclusively; a campaign writer must be
// told to finish the campaign first.
func TestGCRefusedShared(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenShared(t, dir)
	defer st.Close()
	if err := st.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GC(1); err == nil {
		t.Fatal("GC succeeded on a shared (campaign) store handle")
	} else if !strings.Contains(err.Error(), "exclusive") {
		t.Fatalf("GC refusal %q does not explain the lock requirement", err)
	}
}

// TestSharedSkipsIndexAndStrayCleanup: a shared writer must not
// replace the index (its view is partial) nor reap .tmp files (they
// may be a peer's in-flight rename source).
func TestSharedSkipsIndexAndStrayCleanup(t *testing.T) {
	dir := t.TempDir()
	ex := mustOpen(t, dir)
	if err := ex.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil { // exclusive close writes the index
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, indexName)
	idxBefore, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "index.json.tmp99999")
	if err := os.WriteFile(stray, []byte("peer in-flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	sh := mustOpenShared(t, dir)
	if err := sh.Put(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("shared open reaped a peer's tmp file: %v", err)
	}
	idxAfter, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(idxBefore) != string(idxAfter) {
		t.Error("shared writer replaced the index")
	}
	// The next exclusive open reconciles everything from the segments
	// (and logs the index drift instead of trusting it).
	ex2 := mustOpen(t, dir)
	defer ex2.Close()
	if ex2.Len() != 2 {
		t.Fatalf("exclusive reopen sees %d records, want 2", ex2.Len())
	}
}

// TestReadOnlyReportsTornTail: outside shared mode an unterminated
// tail is real corruption (the writer is gone), and must be reported.
func TestReadOnlyReportsTornTailStillCorruption(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if err := st.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	st.unlock() // simulate SIGKILL: kernel drops the flock, no Close
	segs := segFiles(t, dir)
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("00000000 {\"key\":\"torn"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re := mustOpen(t, dir)
	defer re.Close()
	if c := re.Corruptions(); len(c) != 1 || !strings.Contains(c[0].Reason, "truncated") {
		t.Fatalf("corruptions = %v, want the torn tail reported", c)
	}
}

// TestExistingLeavesNoLockBehind: a refused Existing open of a
// non-store path must not leave a LOCK file, nor create a missing
// directory (TestReadOnlyMissingStore checks the same via ReadDir).
func TestExistingLeavesNoLockBehind(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{Mode: Existing}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Existing open of empty dir = %v, want os.ErrNotExist", err)
	}
	if _, err := os.Stat(filepath.Join(dir, lockName)); !errors.Is(err, os.ErrNotExist) {
		t.Error("refused Existing open left a LOCK file behind")
	}
	missing := filepath.Join(dir, "typo")
	if _, err := Open(missing, Options{Mode: Existing}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Existing open of a missing path = %v, want os.ErrNotExist", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Error("refused Existing open created the missing directory")
	}
}
