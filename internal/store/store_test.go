package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testRecord(i int) Record {
	cfg := PointConfig{Point: fmt.Sprintf("test|p%03d", i), EngineSchema: 1, BaseSeed: 1, Cycles: 1000}
	return Record{
		Key:          cfg.Key(),
		Point:        cfg.Point,
		Seed:         int64(100 + i),
		BaseSeed:     1,
		EngineSchema: 1,
		Engine:       "test",
		WallMS:       1.5,
		Created:      "2026-08-05T00:00:00Z",
		Payload:      json.RawMessage(fmt.Sprintf(`{"value":%d}`, i)),
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = testRecord(i)
		if err := st.Put(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range recs {
		got, ok := st.Get(want.Key)
		if !ok || string(got.Payload) != string(want.Payload) {
			t.Fatalf("Get(%s) = %+v, %v", ShortKey(want.Key), got, ok)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir)
	defer st2.Close()
	if st2.Len() != len(recs) {
		t.Fatalf("reopened store has %d records, want %d", st2.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := st2.Get(want.Key)
		if !ok {
			t.Fatalf("record %s lost across reopen", ShortKey(want.Key))
		}
		if got.Point != want.Point || got.Seed != want.Seed || string(got.Payload) != string(want.Payload) {
			t.Fatalf("record %s changed across reopen: %+v", ShortKey(want.Key), got)
		}
	}
	if c := st2.Corruptions(); len(c) != 0 {
		t.Fatalf("clean store reports corruption: %v", c)
	}
}

// TestReopenWithoutClose is the kill scenario: records appended but the
// process dies before Close (no index update). The scan is the source
// of truth, so nothing is lost.
func TestReopenWithoutClose(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := 0; i < 5; i++ {
		if err := st.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate SIGKILL by dropping the handle. The kernel
	// releases a dead process's flock, which an in-process drop cannot
	// reproduce, so release it by hand.
	st.unlock()
	st2 := mustOpen(t, dir)
	defer st2.Close()
	if st2.Len() != 5 {
		t.Fatalf("store lost records without Close: have %d, want 5", st2.Len())
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segGlob))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestTruncatedTailSkipped simulates a kill mid-append: the final
// record line is cut short. Open must skip exactly that record, report
// it, and keep everything before it.
func TestTruncatedTailSkipped(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := 0; i < 4; i++ {
		if err := st.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %v", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], b[:len(b)-7], 0o644); err != nil { // tear the tail
		t.Fatal(err)
	}

	var logged []string
	st2, err := Open(dir, Options{Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 3 {
		t.Fatalf("have %d records after torn tail, want 3", st2.Len())
	}
	corr := st2.Corruptions()
	if len(corr) != 1 || !strings.Contains(corr[0].Reason, "truncated tail") {
		t.Fatalf("corruption report = %v, want one truncated-tail entry", corr)
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "skipped corrupt record") {
			found = true
		}
	}
	if !found {
		t.Errorf("torn tail was not logged; log: %v", logged)
	}
	// The torn record's key must read as missing, so a resume
	// recomputes it.
	if _, ok := st2.Get(testRecord(3).Key); ok {
		t.Error("torn record still resolvable")
	}
	// And the store must accept new appends (in a fresh segment, never
	// after the torn tail).
	if err := st2.Put(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	if got := segFiles(t, dir); len(got) != 2 {
		t.Fatalf("append after torn tail reused the damaged segment: %v", got)
	}
}

// TestCorruptMiddleRecordSkipped flips a byte mid-file: only that
// record is lost.
func TestCorruptMiddleRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := 0; i < 3; i++ {
		if err := st.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	seg := segFiles(t, dir)[0]
	b, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(b), "\n")
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x20
	lines[1] = string(mid)
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir)
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("have %d records, want 2 (middle record corrupt)", st2.Len())
	}
	corr := st2.Corruptions()
	if len(corr) != 1 || corr[0].Line != 2 {
		t.Fatalf("corruption report = %v, want line 2", corr)
	}
	if _, ok := st2.Get(testRecord(0).Key); !ok {
		t.Error("record before the corrupt line lost")
	}
	if _, ok := st2.Get(testRecord(2).Key); !ok {
		t.Error("record after the corrupt line lost")
	}
}

// TestChecksumField: the CRC field is exactly eight hex digits. A
// damaged one is malformed, even where a lenient reading of it ("
// 1234567" as 0x01234567) would match the body.
func TestChecksumField(t *testing.T) {
	var line []byte
	for i := 0; len(line) == 0 || line[0] != '0'; i++ {
		rec := testRecord(i)
		var err error
		if line, _, err = appendLine(nil, &rec, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
	crc, body := string(line[:8]), string(line[8:])
	for field, want := range map[string]string{
		crc:                  "",
		strings.ToUpper(crc): "",
		" " + crc[1:]:        "malformed checksum field",
		crc[:7] + " ":        "malformed checksum field",
		"0x" + crc[2:]:       "malformed checksum field",
		"+" + crc[1:]:        "malformed checksum field",
	} {
		if _, reason := parseLine([]byte(field + body)); reason != want {
			t.Errorf("CRC field %q: reason %q, want %q", field, reason, want)
		}
	}
}

func TestLatestDuplicateWins(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	rec := testRecord(0)
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st = mustOpen(t, dir) // new session, new segment
	rec.Payload = json.RawMessage(`{"value":999}`)
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := mustOpen(t, dir)
	defer st2.Close()
	got, ok := st2.Get(rec.Key)
	if !ok || string(got.Payload) != `{"value":999}` {
		t.Fatalf("latest duplicate did not win: %s", got.Payload)
	}
	if s := st2.Stats(); s.Total != 2 || s.Records != 1 {
		t.Fatalf("stats = %+v, want total 2 live 1", s)
	}
}

// TestPutAfterCloseRefused: a closed store takes no more writes. Put
// and GC fail and create no segment (Close released the lock they would
// write under), and a second Close writes nothing, not even the index.
func TestPutAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if err := st.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord(1)); err == nil {
		t.Error("Put on a closed store succeeded")
	}
	if _, err := st.GC(0); err == nil {
		t.Error("GC on a closed store succeeded")
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Errorf("segments after Close: %v, want the one written before it", segs)
	}
	index := filepath.Join(dir, indexName)
	if err := os.Remove(index); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := os.Stat(index); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("second Close rewrote the index (stat: %v)", err)
	}
	if got, ok := st.Get(testRecord(0).Key); !ok || string(got.Payload) != `{"value":0}` {
		t.Errorf("Get after Close = %s, %v; reads stay served from memory", got.Payload, ok)
	}
	st2 := mustOpen(t, dir)
	defer st2.Close()
	if st2.Len() != 1 {
		t.Errorf("reopen has %d records, want 1", st2.Len())
	}
}

// TestLivePayloadIsStoredBytes: the live record's payload is the bytes
// its line holds, so a store and a fresh reader of it agree on every
// record, whether the payload came raw (and was compacted) or typed.
func TestLivePayloadIsStoredBytes(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	defer st.Close()
	raw, typed := testRecord(0), testRecord(1)
	raw.Payload = json.RawMessage(`{"a": 1,  "b" : [1, 2], "c": "<&>"}`)
	if err := st.Put(raw); err != nil {
		t.Fatal(err)
	}
	if err := PutValue(st, typed, struct{ A, B float64 }{0.5, 1e21}); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		raw.Key:   `{"a":1,"b":[1,2],"c":"\u003c\u0026\u003e"}`,
		typed.Key: `{"A":0.5,"B":1e+21}`,
	} {
		if got, _ := st.Get(key); string(got.Payload) != want {
			t.Errorf("live payload %s, want the stored %s", got.Payload, want)
		}
	}
	ro, err := Open(dir, Options{Mode: ReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if rep := Diff(st, ro); rep.Equal != 2 || len(rep.Differ)+len(rep.OnlyA)+len(rep.OnlyB) != 0 {
		t.Errorf("live store against its reopened copy: %d equal, %d differ, %d only live, %d only reopened",
			rep.Equal, len(rep.Differ), len(rep.OnlyA), len(rep.OnlyB))
	}
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	// Two live records under schema 1, one stale record under schema 99,
	// one superseded duplicate.
	for i := 0; i < 2; i++ {
		if err := st.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(testRecord(0)); err != nil { // duplicate
		t.Fatal(err)
	}
	stale := testRecord(7)
	stale.EngineSchema = 99
	if err := st.Put(stale); err != nil {
		t.Fatal(err)
	}

	rep, err := st.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live != 2 || rep.DroppedStale != 1 || rep.DroppedDupes != 1 {
		t.Fatalf("gc report = %+v, want live 2, stale 1, dupes 1", rep)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("gc left %v, want one compacted segment", segs)
	}
	st2 := mustOpen(t, dir)
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reopen after gc has %d records, want 2", st2.Len())
	}
	if _, ok := st2.Get(stale.Key); ok {
		t.Error("stale-engine record survived gc")
	}
}

func TestDiff(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := mustOpen(t, dirA), mustOpen(t, dirB)
	defer a.Close()
	defer b.Close()
	shared := testRecord(0)
	if err := a.Put(shared); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(shared); err != nil {
		t.Fatal(err)
	}
	onlyA := testRecord(1)
	if err := a.Put(onlyA); err != nil {
		t.Fatal(err)
	}
	differ := testRecord(2)
	if err := a.Put(differ); err != nil {
		t.Fatal(err)
	}
	differ.Payload = json.RawMessage(`{"value":-1}`)
	if err := b.Put(differ); err != nil {
		t.Fatal(err)
	}
	rep := Diff(a, b)
	if rep.Equal != 1 || len(rep.OnlyA) != 1 || len(rep.OnlyB) != 0 || len(rep.Differ) != 1 {
		t.Fatalf("diff = %+v", rep)
	}
	if rep.OnlyA[0].Key != onlyA.Key || rep.Differ[0].Key != differ.Key {
		t.Fatalf("diff attributed wrong keys: %+v", rep)
	}
}

func TestSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	m := `{"store_schema": 999, "created": "2026-01-01T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Open accepted a schema-999 store: %v", err)
	}
}

func TestManifestlessSegmentsRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open adopted a manifest-less directory with segments")
	}
}

func TestStrayTmpFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.Close()
	stray := filepath.Join(dir, indexName+".tmp")
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir)
	defer st2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stale .tmp file survived Open")
	}
}

func TestVerifyReport(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := 0; i < 3; i++ {
		if err := st.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	stale := testRecord(5)
	stale.EngineSchema = 2
	if err := st.Put(stale); err != nil {
		t.Fatal(err)
	}
	st.Close()
	seg := segFiles(t, dir)[0]
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"torn\":"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Verify(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 4 || rep.Live != 4 || len(rep.Corruptions) != 1 || rep.StaleEngine != 1 {
		t.Fatalf("verify = %+v", rep)
	}
}

// TestReadOnlyMissingStore: inspection opens must flag a bad path, not
// conjure an empty store that then reports a clean bill of health.
func TestReadOnlyMissingStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo", "path")
	if _, err := Open(dir, Options{Mode: ReadOnly}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read-only Open of a missing store = %v, want os.ErrNotExist", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("read-only Open created the missing directory")
	}
	if _, err := Verify(dir, 1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Verify of a missing store = %v, want os.ErrNotExist", err)
	}
	// An existing but empty directory is just as wrong: no manifest, no
	// store.
	empty := t.TempDir()
	if _, err := Open(empty, Options{Mode: ReadOnly}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read-only Open of a manifest-less dir = %v, want os.ErrNotExist", err)
	}
	if _, err := Open(empty, Options{Mode: Existing}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Existing Open of a manifest-less dir = %v, want os.ErrNotExist", err)
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Errorf("refused opens left files behind: %v, %v", entries, err)
	}
}

// dirSnapshot captures every file's name and content, to prove
// read-only operations touch nothing.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = string(b)
	}
	return snap
}

// TestReadOnlyDoesNotMutate: a read-only session reads records fine,
// refuses Put and GC, leaves stray temp files alone, and its Close
// writes nothing — the directory is bit-identical before and after.
func TestReadOnlyDoesNotMutate(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	want := testRecord(1)
	if err := st.Put(want); err != nil {
		t.Fatal(err)
	}
	st.Close()
	stray := filepath.Join(dir, indexName+".tmp")
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirSnapshot(t, dir)

	ro, err := Open(dir, Options{Mode: ReadOnly, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ro.Get(want.Key); !ok || string(got.Payload) != string(want.Payload) {
		t.Fatalf("read-only Get(%s) = %+v, %v", ShortKey(want.Key), got, ok)
	}
	if err := ro.Put(testRecord(2)); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("read-only Put = %v, want read-only refusal", err)
	}
	if _, err := ro.GC(1); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("read-only GC = %v, want read-only refusal", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirSnapshot(t, dir); len(after) != len(before) {
		t.Fatalf("read-only session changed the file set: %v -> %v", before, after)
	} else {
		for name, content := range before {
			if after[name] != content {
				t.Errorf("read-only session rewrote %s", name)
			}
		}
	}
}

// TestSegmentRotation forces rotation by payload size and checks that
// all records survive across many segments.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	big := strings.Repeat("x", 1<<20)
	const n = 20 // ~20 MB total => at least 3 segments at the 8 MB cap
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		rec.Payload = json.RawMessage(fmt.Sprintf(`{"blob":%q,"i":%d}`, big, i))
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Each rotation rewrites the index, so before Close it already
	// lists every segment but the active one.
	b, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		t.Fatal(err)
	}
	var idx indexFile
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	st.Close()
	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %v", segs)
	}
	if len(idx.Segments) != len(segs)-1 {
		t.Errorf("index before Close lists %d segments, want the %d closed ones", len(idx.Segments), len(segs)-1)
	}
	st2 := mustOpen(t, dir)
	defer st2.Close()
	if st2.Len() != n {
		t.Fatalf("have %d records across rotated segments, want %d", st2.Len(), n)
	}
}

// TestCompatStore opens testdata/compat, a store whose first
// segment was written by Put under the reflection encoder (records with
// and without tier and worker, escaped strings, an exponent wall time)
// and whose second was framed by hand with valid checksums (a
// non-compact payload, reordered fields, broken JSON, a torn tail).
// The records and corruptions are the ones that encoder's build read.
func TestCompatStore(t *testing.T) {
	st, err := Open(filepath.Join("testdata", "compat"), Options{Mode: ReadOnly, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantRecords := []string{
		`2f20aac0b2e9b26d32d5540b8d7c6188f8142b80fe84afba110b8ad0ac0b88ac "fig6a|SF(q=5,p=3)|MIN|UNI|load=0.5000" 101 1 1 1 "test" "" "" 1300.004417 "2026-08-05T00:00:00Z" {"Load":0.5,"Throughput":0.4987,"AvgLatency":31.25}`,
		`cf58a33961747fa3971e4d23065a3c02c3054a51a7d7eaefd28734a42be55ce8 "hand|noncompact" 5 1 1 1 "test" "" "" 1.5 "2026-08-05T00:00:00Z" { "a" : [1, 2],  "b":"x y" }`,
		`2856355a6c86a3bd06fd584a9c48eb2535a67eb67d4e7e225cf3a9ede871207d "hand|reordered" 6 1 1 1 "test" "fluid" "" 15 "2026-08-05T00:00:00Z" {"v":6}`,
		`d7ee96daa99a656ffe85b3fad1ad1b32598879962314c8cb85717e6e9e5a136c "screen|SF(q=5,p=3)|MIN|UNI|load=0.2000" 102 1 1 1 "test" "fluid" "w1" 4.2e-07 "2026-08-05T00:00:00Z" {"Topo":"SF(q=5,p=3)","Load":0.2,"Saturation":1,"AvgHops":1.857142857142855}`,
		`e4ce47ba89d52c4e29a02a0933543c595f0b3053e35ec77be8eb5df52e452032 "test|p004" -9223372036854775808 1 1 1 "test" "" "w2" 1.5 "2026-08-05T00:00:00Z" {"value":4}`,
		`1cdbb7fcd6b404c1a9f19c0819a52bc2b0d42ae7e1d6354a304568d3e1b7ddb5 "x|<a&b>|café\u2028|\t" 103 1 1 1 "v\"1\"\\dev" "" "" 2e+21 "2026-08-05T00:00:00Z" {"note":"\u003ctag\u003e \u0026 \u2028","v":[1,2,3]}`,
	}
	wantCorruptions := []string{
		`seg-000002.jsonl:3: checksum ok but JSON undecodable: unexpected end of JSON input`,
		`seg-000002.jsonl:4: truncated tail record (no trailing newline)`,
	}
	var records, corruptions []string
	for _, r := range st.Records() {
		records = append(records, fmt.Sprintf("%s %q %d %d %d %d %q %q %q %v %q %s", r.Key, r.Point, r.Seed, r.BaseSeed,
			r.EngineSchema, r.StoreSchema, r.Engine, r.Tier, r.Worker, r.WallMS, r.Created, r.Payload))
	}
	for _, c := range st.Corruptions() {
		corruptions = append(corruptions, c.String())
	}
	if !reflect.DeepEqual(records, wantRecords) {
		t.Errorf("records:\n%s\nwant:\n%s", strings.Join(records, "\n"), strings.Join(wantRecords, "\n"))
	}
	if !reflect.DeepEqual(corruptions, wantCorruptions) {
		t.Errorf("corruptions:\n%s\nwant:\n%s", strings.Join(corruptions, "\n"), strings.Join(wantCorruptions, "\n"))
	}
}
