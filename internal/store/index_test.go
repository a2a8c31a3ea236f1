package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// This file tests the index the store keeps instead of its records:
// reads that reach the disk, the segment handles they go through, and
// what the index costs in memory.

// logBuffer collects a store's Logf output.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.b, format+"\n", args...)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestGetDetectsDamageAfterOpen: a byte flipped in a record's line, or
// a segment cut short, after the store indexed it makes that record's
// Get a miss, logged with the segment and the line's byte offset; the
// other records still read, Records leaves the damaged ones out, and
// GC refuses rather than drop them.
func TestGetDetectsDamageAfterOpen(t *testing.T) {
	dir := t.TempDir()
	var log logBuffer
	st, err := Open(dir, Options{Logf: log.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := range 3 {
		if err := st.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want 1", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	off1 := len(lines[0])
	off2 := off1 + len(lines[1])
	name := filepath.Base(segs[0])

	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := off1 + bytes.Index(lines[1], []byte(`{"value":1}`)) + len(`{"value":`)
	if _, err := f.WriteAt([]byte{'7'}, int64(at)); err != nil { // {"value":1} -> {"value":7}
		t.Fatal(err)
	}
	f.Close()
	if got, ok := st.Get(testRecord(1).Key); ok {
		t.Errorf("Get of a record flipped on disk = %s, want a miss", got.Payload)
	}
	if want := fmt.Sprintf("in %s at byte %d unreadable: checksum mismatch", name, off1); !strings.Contains(log.String(), want) {
		t.Errorf("log %q does not say %q", log.String(), want)
	}

	if err := os.Truncate(segs[0], int64(off2+len(lines[2])/2)); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(testRecord(2).Key); ok {
		t.Errorf("Get of a record cut short on disk = %s, want a miss", got.Payload)
	}
	if want := fmt.Sprintf("in %s at byte %d unreadable: read failed", name, off2); !strings.Contains(log.String(), want) {
		t.Errorf("log %q does not say %q", log.String(), want)
	}

	if got, ok := st.Get(testRecord(0).Key); !ok || string(got.Payload) != `{"value":0}` {
		t.Errorf("Get of the undamaged record = %s, %v", got.Payload, ok)
	}
	if s := st.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats %+v, want 1 hit and 2 misses", s)
	}
	if recs := st.Records(); len(recs) != 1 || recs[0].Key != testRecord(0).Key {
		t.Errorf("Records returned %d records, want only the undamaged one", len(recs))
	}
	if _, err := st.GC(0); err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Errorf("GC over damaged records = %v, want a refusal", err)
	}
	if now := segFiles(t, dir); len(now) != 1 || now[0] != segs[0] {
		t.Errorf("refused GC left segments %v, want %v untouched", now, segs)
	}
}

// TestReadOnlyOutlivesGC: a read-only store takes no lock, so a gc in
// another process may compact the segments it indexed and remove them.
// Its handles keep the removed files readable: every Get still
// answers, and a Refresh picks up the compacted segment.
func TestReadOnlyOutlivesGC(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := range 5 {
		if err := st.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, Options{Mode: ReadOnly, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	before := segFiles(t, dir)

	ex, err := Open(dir, Options{Mode: Existing, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.GC(0); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range before {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("gc left %s in place", p)
		}
	}

	check := func(when string) {
		for i := range 5 {
			want := testRecord(i)
			if got, ok := ro.Get(want.Key); !ok || string(got.Payload) != string(want.Payload) {
				t.Errorf("%s: Get(%d) = %s, %v", when, i, got.Payload, ok)
			}
		}
		if n := len(ro.Records()); n != 5 {
			t.Errorf("%s: Records returned %d, want 5", when, n)
		}
	}
	check("after gc removed the segments")
	if err := ro.Refresh(); err != nil {
		t.Fatal(err)
	}
	check("after a refresh read the compacted segment")
}

// TestOpenHeapPerRecord fences the memory an open store costs: 20 000
// records with 64-hex-character keys and ~300-byte payloads may hold
// at most 200 bytes of live heap each. A store that kept every decoded
// record measured 577 B per record.
func TestOpenHeapPerRecord(t *testing.T) {
	const n, limit = 20000, 200
	dir := t.TempDir()
	st := mustOpen(t, dir)
	pad := strings.Repeat("x", 280)
	for i := range n {
		rec := testRecord(i)
		if len(rec.Key) != 64 {
			t.Fatalf("key %q is not 64 characters", rec.Key)
		}
		rec.Payload = json.RawMessage(fmt.Sprintf(`{"value":%d,"pad":%q}`, i, pad))
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ro, err := Open(dir, Options{Mode: ReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ro.Len() != n {
		t.Fatalf("opened %d records, want %d", ro.Len(), n)
	}
	perRecord := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("live heap after Open: %d B per record", perRecord)
	if perRecord > limit {
		t.Errorf("an open store holds %d B of live heap per record, want at most %d", perRecord, limit)
	}
	ro.Close()
}

// TestConcurrentGetPut runs writers, readers and compaction on one
// store at once, and every Get must return the bytes that were put.
// Under an exclusive writer, two goroutines Put, two Get, and a GC
// rewrites the store half-way. Under the campaign's shared lock, two
// writers in two handles Put, and the second handle's readers Refresh
// to see the first's records.
func TestConcurrentGetPut(t *testing.T) {
	const n = 200 // records per writer
	dir := t.TempDir()
	st := mustOpen(t, dir)
	putAndCheck(t, [2]*Store{st, st}, st, n, func() {
		if _, err := st.GC(0); err != nil {
			t.Error(err)
		}
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	if re.Len() != 2*n {
		t.Errorf("reopened store has %d records, want %d", re.Len(), 2*n)
	}
	re.Close()

	dir = t.TempDir()
	a := mustOpenShared(t, dir)
	defer a.Close()
	b := mustOpenShared(t, dir)
	defer b.Close()
	putAndCheck(t, [2]*Store{a, b}, b, n, func() {
		if err := b.Refresh(); err != nil {
			t.Error(err)
		}
	})
}

// putAndCheck has writer w Put records w·n … w·n+n−1 through ws[w],
// while two readers Get records already put through r, refreshing it
// once on a miss. mid runs once, when writer 0 is half-way.
func putAndCheck(t *testing.T, ws [2]*Store, r *Store, n int, mid func()) {
	t.Helper()
	var done [2]atomic.Int64
	var writing sync.WaitGroup
	for w := range 2 {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for j := range n {
				if w == 0 && j == n/2 {
					mid()
				}
				if err := ws[w].Put(testRecord(w*n + j)); err != nil {
					t.Error(err)
					return
				}
				done[w].Store(int64(j + 1))
			}
		}()
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	var reads atomic.Int64
	for range 2 {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := rand.IntN(2)
				put := done[w].Load()
				if put == 0 {
					runtime.Gosched()
					continue
				}
				want := testRecord(w*n + rand.IntN(int(put)))
				got, ok := r.Get(want.Key)
				if !ok {
					if err := r.Refresh(); err != nil {
						t.Error(err)
						return
					}
					got, ok = r.Get(want.Key)
				}
				if !ok || got.Key != want.Key || string(got.Payload) != string(want.Payload) {
					t.Errorf("Get(%s) = %s %s, %v; want %s", ShortKey(want.Key), ShortKey(got.Key), got.Payload, ok, want.Payload)
					return
				}
				reads.Add(1)
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	if reads.Load() == 0 {
		t.Error("the readers read nothing")
	}
}
