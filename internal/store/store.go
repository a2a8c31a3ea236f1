package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Schema is the on-disk format version of the store itself (manifest,
// index, record framing). A store written under a different Schema is
// refused at Open rather than silently misread.
const Schema = 1

const (
	manifestName = "MANIFEST.json"
	indexName    = "index.json"
	lockName     = "LOCK"
	segFormat    = "seg-%06d.jsonl"
	segGlob      = "seg-*.jsonl"

	// maxSegmentBytes rotates the active segment; small enough that a
	// GC rewrite or a verify scan never holds one huge file. The index
	// is rewritten at each rotation and at Close, so after a kill it
	// trails the segments by at most one; it is an integrity
	// cross-check, never the source of truth — Open always rescans.
	maxSegmentBytes = 8 << 20
)

// Record is one stored sweep-point result with its provenance.
type Record struct {
	Key          string          `json:"key"`              // canonical content address (PointConfig.Key)
	Point        string          `json:"point"`            // human-readable scheduler point key
	Seed         int64           `json:"seed"`             // derived per-point seed the run used
	BaseSeed     int64           `json:"base_seed"`        // sweep base seed
	EngineSchema int             `json:"engine_schema"`    // sim.EngineSchema at run time
	StoreSchema  int             `json:"store_schema"`     // Schema at write time
	Engine       string          `json:"engine"`           // build/version of the producing binary
	Tier         string          `json:"tier,omitempty"`   // result tier: "" = flit-level sim, TierFluid = analytic
	Worker       string          `json:"worker,omitempty"` // campaign worker that produced it, if any
	WallMS       float64         `json:"wall_ms"`          // point wall time, milliseconds
	Created      string          `json:"created"`          // RFC3339 UTC
	Payload      json.RawMessage `json:"payload"`          // the point's result, JSON-encoded
}

// Corruption describes one record that failed validation during a scan
// and was skipped.
type Corruption struct {
	Segment string
	Line    int // 1-based line number within the segment
	Reason  string
}

func (c Corruption) String() string {
	return fmt.Sprintf("%s:%d: %s", c.Segment, c.Line, c.Reason)
}

// Stats summarizes a store's state and this session's traffic.
type Stats struct {
	Records  int // live records (latest per key)
	Total    int // records scanned at open + puts this session (incl. superseded)
	Segments int
	Corrupt  int   // corrupt/truncated records skipped at open
	Hits     int64 // successful Gets this session
	Misses   int64 // failed Gets this session
	Puts     int64 // records appended this session
}

// Mode says what Open may do to the store directory and how it takes
// the store's advisory lock.
type Mode int

const (
	// Create opens the store, creating it if needed, as its one writer:
	// the lock is taken exclusively, so a second writer that does not
	// speak the lease protocol fails fast instead of interleaving.
	Create Mode = iota
	// Shared opens the store, creating it if needed, as one of several
	// cooperating writer processes (the campaign lease protocol): the
	// lock is taken shared. Each writer still appends only to its own
	// segment (rotation is O_EXCL), other writers' appends become
	// visible through Refresh, and index maintenance is skipped (the
	// segment scan is the source of truth; a partial-view index would
	// only log drift). GC is refused.
	Shared
	// Existing opens an existing store as its one writer, for commands
	// that maintain a store (gc) rather than start one, so gc cannot
	// rewrite segments under a live campaign: a path with no manifest
	// is an error (wrapping os.ErrNotExist), and is left as it was.
	Existing
	// ReadOnly opens an existing store for inspection: no lock is
	// taken and nothing on disk is created or modified — a missing
	// directory or manifest is an error (wrapping os.ErrNotExist),
	// stray temp files are left in place, Close skips the index
	// rewrite, and Put and GC fail.
	ReadOnly
)

// Options configures Open.
type Options struct {
	// Logf receives scan warnings (corrupt records, index drift); nil
	// discards them.
	Logf func(format string, args ...any)
	// CreatedBy is recorded in the manifest of a newly-created store.
	CreatedBy string
	// Mode is how the store is opened; the zero value is Create.
	Mode Mode
}

type manifest struct {
	StoreSchema int    `json:"store_schema"`
	Created     string `json:"created"`
	CreatedBy   string `json:"created_by,omitempty"`
}

type segmentInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"` // valid records (corrupt lines excluded)
}

type indexFile struct {
	StoreSchema int           `json:"store_schema"`
	Segments    []segmentInfo `json:"segments"`
	Records     int           `json:"records"` // live keys at write time
}

// Store is an open result store. All methods are safe for concurrent
// use by the goroutines of one process; writers in separate processes
// cooperate only when each opened the store Shared.
type Store struct {
	mu   sync.Mutex
	dir  string
	logf func(format string, args ...any)
	mode Mode
	lock *os.File // advisory flock holder; nil when read-only

	recs    map[string]Record // key -> latest record
	total   int
	segs    []segmentInfo
	corrupt []Corruption
	nextSeg int
	// offsets/lines track, per segment, the position up to which this
	// process has consumed complete records — the resume point for
	// Refresh, which tails other writers' segments.
	offsets map[string]int64
	lines   map[string]int

	active      *os.File
	activeBytes int64
	activeName  string
	closed      bool

	hits, misses, puts int64
}

// Open opens the store in dir as opts.Mode says. The segments
// are scanned front to back; records that fail framing, checksum or
// JSON validation — a torn tail after a kill, a flipped bit — are
// logged via opts.Logf and skipped, and the store stays fully usable.
// For a duplicated key the record appended last wins.
func Open(dir string, opts Options) (*Store, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{dir: dir, logf: logf, mode: opts.Mode,
		recs: make(map[string]Record), offsets: make(map[string]int64), lines: make(map[string]int)}
	if opts.Mode == Existing {
		// Fail fast: a refused open must leave a path that holds no
		// store exactly as it found it (no directory, no LOCK file).
		if _, err := os.Stat(filepath.Join(dir, manifestName)); errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store: %s is not a store (no %s): %w", dir, manifestName, os.ErrNotExist)
		}
	}
	if opts.Mode != ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		lock, err := acquireLock(filepath.Join(dir, lockName), opts.Mode == Shared)
		if err != nil {
			return nil, err
		}
		s.lock = lock
	}
	if err := s.loadManifest(opts.CreatedBy); err != nil {
		s.unlock()
		return nil, err
	}
	// Stray .tmp files are leftovers of a kill mid-replace; the rename
	// never happened, so their contents were never part of the store.
	// Only an exclusive writer may clean them: a shared (campaign)
	// writer could race another worker's in-flight replace, and
	// read-only opens leave them for the next writer to reclaim.
	if strays, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(strays) > 0 && (opts.Mode == Create || opts.Mode == Existing) {
		for _, p := range strays {
			os.Remove(p)
		}
		logf("store: removed %d stale .tmp file(s)", len(strays))
	}
	idx := s.readIndex()
	if err := s.refresh(); err != nil {
		s.unlock()
		return nil, err
	}
	s.nextSeg = 1
	for _, seg := range s.segs {
		var n int
		if _, err := fmt.Sscanf(seg.Name, segFormat, &n); err == nil && n >= s.nextSeg {
			s.nextSeg = n + 1
		}
	}
	s.crossCheckIndex(idx)
	return s, nil
}

// unlock releases the advisory lock (idempotent).
func (s *Store) unlock() {
	if s.lock != nil {
		releaseLock(s.lock)
		s.lock = nil
	}
}

func (s *Store) loadManifest(createdBy string) error {
	path := filepath.Join(s.dir, manifestName)
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if jerr := json.Unmarshal(b, &m); jerr != nil {
			return fmt.Errorf("store: unreadable manifest %s: %w", path, jerr)
		}
		if m.StoreSchema != Schema {
			return fmt.Errorf("store: %s has store schema %d, this binary speaks %d (use a fresh -store directory or gc with a matching build)",
				s.dir, m.StoreSchema, Schema)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if s.mode == ReadOnly || s.mode == Existing {
			return fmt.Errorf("store: %s is not a store (no %s): %w", s.dir, manifestName, os.ErrNotExist)
		}
		// New store (or a pre-manifest directory): refuse to adopt a
		// directory that already has unrelated files but no manifest.
		if segs, _ := filepath.Glob(filepath.Join(s.dir, segGlob)); len(segs) > 0 {
			return fmt.Errorf("store: %s has segments but no %s; refusing to guess its schema", s.dir, manifestName)
		}
		m := manifest{StoreSchema: Schema, Created: time.Now().UTC().Format(time.RFC3339), CreatedBy: createdBy}
		return replaceFile(path, mustJSON(m))
	default:
		return err
	}
}

func (s *Store) readIndex() *indexFile {
	b, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		return nil
	}
	var idx indexFile
	if err := json.Unmarshal(b, &idx); err != nil {
		s.logf("store: ignoring unreadable index: %v", err)
		return nil
	}
	return &idx
}

// segCursor marks how far into a segment this process has consumed
// complete records: the byte offset after the last newline-terminated
// line, and how many lines that was (for corruption reports).
type segCursor struct {
	off  int64
	line int
}

// scanFrom validates one segment's records from the cursor to EOF,
// folding valid ones into the in-memory map. Every line is framed as
// "CRC32HEX <json>\n"; a line that fails framing, checksum or JSON
// decoding is reported and skipped. A final line with no newline is a
// torn tail: the cursor stops before it, so that — when the segment
// belongs to another live writer (shared mode) — a later Refresh
// re-reads it once the append completes. In exclusive or read-only
// mode nobody can still be appending, so the torn tail is reported as
// the corruption it is (the expected SIGKILL signature).
func (s *Store) scanFrom(path string, cur segCursor) (added int, out segCursor, corrs []Corruption, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, cur, nil, err
	}
	defer f.Close()
	name := filepath.Base(path)
	out = cur
	if out.off > 0 {
		if _, err := f.Seek(out.off, io.SeekStart); err != nil {
			return 0, cur, nil, err
		}
	}
	// A tail of a few records, which is what Refresh reads after a
	// peer's append, gets a buffer its size, not the whole-segment one.
	fi, err := f.Stat()
	if err != nil {
		return 0, cur, nil, err
	}
	r := bufio.NewReaderSize(f, int(min(fi.Size()-out.off, 1<<20)))
	for {
		raw, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return added, out, corrs, rerr
		}
		if len(raw) > 0 {
			if raw[len(raw)-1] != '\n' {
				if s.mode != Shared {
					corrs = append(corrs, Corruption{Segment: name, Line: out.line + 1,
						Reason: "truncated tail record (no trailing newline)"})
				}
				return added, out, corrs, nil
			}
			out.line++
			out.off += int64(len(raw))
			if rec, reason := parseLine(raw); reason != "" {
				corrs = append(corrs, Corruption{Segment: name, Line: out.line, Reason: reason})
			} else {
				s.recs[rec.Key] = rec
				s.total++
				added++
			}
		}
		if rerr == io.EOF {
			return added, out, corrs, nil
		}
	}
}

// Refresh makes other processes' appends visible: it scans segments
// that appeared since the last scan and tails known segments past the
// consumed cursor. The store's own active segment is skipped (its
// records are already in memory). An unterminated final line in
// another writer's segment is left unconsumed — it is an in-flight
// append that a later Refresh completes, or a dead writer's torn tail
// whose record was lost in the kill and gets recomputed under the
// lease protocol anyway.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refresh()
}

// refresh is Refresh without the lock, and Open's whole scan: on an
// empty store every segment is new and is read from its first byte, in
// name order, so later appends of a key win.
func (s *Store) refresh() error {
	names, err := filepath.Glob(filepath.Join(s.dir, segGlob))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, path := range names {
		name := filepath.Base(path)
		if name == s.activeName {
			continue
		}
		cur := segCursor{off: s.offsets[name], line: s.lines[name]}
		fi, err := os.Stat(path)
		if err != nil {
			continue // raced a concurrent removal; a reopen reconciles
		}
		if _, known := s.offsets[name]; known && fi.Size() <= cur.off {
			continue
		}
		added, ncur, corrs, err := s.scanFrom(path, cur)
		if err != nil {
			return err
		}
		s.offsets[name] = ncur.off
		s.lines[name] = ncur.line
		if i := s.segIndexOf(name); i >= 0 {
			s.segs[i].Records += added
		} else {
			s.segs = append(s.segs, segmentInfo{Name: name, Records: added})
		}
		for _, c := range corrs {
			s.logf("store: skipped corrupt record %s", c)
		}
		s.corrupt = append(s.corrupt, corrs...)
	}
	return nil
}

// segIndexOf locates a segment in the bookkeeping list.
func (s *Store) segIndexOf(name string) int {
	for i := range s.segs {
		if s.segs[i].Name == name {
			return i
		}
	}
	return -1
}

// crossCheckIndex compares the scan against the index; drift is normal
// after a kill (the index trails the segments) and only logged.
func (s *Store) crossCheckIndex(idx *indexFile) {
	if idx == nil {
		return
	}
	indexed := map[string]int{}
	for _, seg := range idx.Segments {
		indexed[seg.Name] = seg.Records
	}
	for _, seg := range s.segs {
		if want, ok := indexed[seg.Name]; ok && want != seg.Records {
			s.logf("store: segment %s has %d valid records, index expected %d (stale index or corruption; scan wins)",
				seg.Name, seg.Records, want)
		}
		delete(indexed, seg.Name)
	}
	for name := range indexed {
		s.logf("store: index lists missing segment %s", name)
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the stored record for a canonical key.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return rec, ok
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Put appends a record and makes it the live result for its key. The
// write is a single checksummed line on an append-only segment: a kill
// during Put loses at most this record, never an earlier one. The
// payload is validated and compacted as json.Marshal does, and the live
// record holds the compacted bytes, the ones a reopen reads.
func (s *Store) Put(rec Record) error {
	return PutValue(s, rec, rec.Payload)
}

// PutValue is Put with rec's payload given as a value: v is encoded
// once, into the record's line, and the live record's payload is a copy
// of its bytes there. The line is what Put writes for the payload
// json.Marshal(v).
func PutValue[T any](s *Store, rec Record, v T) error {
	if rec.Key == "" {
		return errors.New("store: record has no key")
	}
	rec.StoreSchema = Schema
	line, payload, err := appendLine(nil, &rec, v)
	if err != nil {
		return fmt.Errorf("store: unencodable record %s: %w", ShortKey(rec.Key), err)
	}
	rec.Payload = bytes.Clone(payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.active == nil || s.activeBytes+int64(len(line)) > maxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if n, err := s.active.Write(line); err != nil {
		// A failed write that left a torn line behind abandons the
		// segment, so the next Put starts a fresh one instead of gluing
		// its record onto the torn bytes; a reopen reports them as the
		// old segment's truncated tail. A write that wrote nothing (a
		// full disk) keeps the segment. The write error is the one to
		// report, so a Close error is dropped.
		if n > 0 {
			_ = s.active.Close()
			s.active = nil
			s.activeName = ""
		}
		return err
	}
	s.activeBytes += int64(len(line))
	s.offsets[s.activeName] = s.activeBytes
	s.lines[s.activeName]++
	s.segs[s.segIndexOf(s.activeName)].Records++
	s.recs[rec.Key] = rec
	s.total++
	s.puts++
	return nil
}

// rotateLocked closes the active segment and opens a fresh one. A new
// writer session always starts its own segment, so it never appends
// after a possibly-torn tail of an older file. Closing a full segment
// rewrites the index, except for a shared (campaign) writer: its view
// of other workers' segments is partial, so its index would only
// record drift for the next open to warn about.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
		if s.mode != Shared {
			if err := s.writeIndexLocked(); err != nil {
				return err
			}
		}
	}
	for {
		name := fmt.Sprintf(segFormat, s.nextSeg)
		s.nextSeg++
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		s.active = f
		s.activeBytes = 0
		s.activeName = name
		s.offsets[name] = 0
		s.lines[name] = 0
		s.segs = append(s.segs, segmentInfo{Name: name})
		return nil
	}
}

// writableLocked refuses writes to a read-only or closed store.
func (s *Store) writableLocked() error {
	switch {
	case s.mode == ReadOnly:
		return fmt.Errorf("store: %s is opened read-only", s.dir)
	case s.closed:
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	return nil
}

func (s *Store) writeIndexLocked() error {
	segs := make([]segmentInfo, len(s.segs))
	copy(segs, s.segs)
	idx := indexFile{StoreSchema: Schema, Segments: segs, Records: len(s.recs)}
	return replaceFile(filepath.Join(s.dir, indexName), mustJSON(idx))
}

// Close flushes the index and releases the active segment. The store
// remains valid on disk without Close ever running — that is the
// crash-safety contract — but a clean Close keeps the index current.
// A read-only store closes without touching the disk. After Close the
// store still answers reads from memory, Put and GC fail, and a
// second Close does nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.unlock()
	wasClosed := s.closed
	s.closed = true
	if wasClosed || s.mode == ReadOnly {
		return nil // nothing written since, or ever; nothing to flush
	}
	var err error
	if s.mode != Shared { // a campaign worker's partial view must not become the index
		err = s.writeIndexLocked()
	}
	if s.active != nil {
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
		s.active = nil
		s.activeName = ""
	}
	return err
}

// Stats returns the store's current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Records:  len(s.recs),
		Total:    s.total,
		Segments: len(s.segs),
		Corrupt:  len(s.corrupt),
		Hits:     s.hits,
		Misses:   s.misses,
		Puts:     s.puts,
	}
}

// SegmentStats reports the store's on-disk footprint: the segment
// files (seg-*.jsonl) present in the directory and their total bytes.
// Manifest, index, lock and stray temp files are excluded. The glob
// runs fresh rather than trusting the open-time scan, so segments
// appended by cooperating shared-lock writers are counted too.
func (s *Store) SegmentStats() (segments int, bytes int64, err error) {
	names, err := filepath.Glob(filepath.Join(s.dir, segGlob))
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, 0, err
		}
		segments++
		bytes += fi.Size()
	}
	return segments, bytes, nil
}

// Corruptions returns the records skipped when the store was opened.
func (s *Store) Corruptions() []Corruption {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Corruption(nil), s.corrupt...)
}

// Records returns the live records sorted by point key (then canonical
// key, for the rare distinct configurations sharing a point string).
func (s *Store) Records() []Record {
	s.mu.Lock()
	out := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Point != out[j].Point {
			return out[i].Point < out[j].Point
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// GCReport summarizes a garbage collection.
type GCReport struct {
	Live            int // records kept
	DroppedStale    int // engine schema mismatch
	DroppedDupes    int // superseded duplicates discarded
	RemovedSegments int
}

// GC compacts the store: the latest record of every key is kept,
// superseded duplicates are dropped, and — when engineSchema > 0 —
// records produced under a different engine schema are dropped as
// stale. The survivors are written to a fresh segment before the old
// segments are removed, so a kill mid-GC leaves at worst both copies,
// which the next Open deduplicates (the compacted segment sorts last
// and wins).
func (s *Store) GC(engineSchema int) (GCReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep GCReport
	if err := s.writableLocked(); err != nil {
		return rep, err
	}
	if s.mode == Shared {
		return rep, fmt.Errorf("store: gc needs exclusive access, but %s is opened shared (campaign mode)", s.dir)
	}
	rep.DroppedDupes = s.total - len(s.recs)
	keep := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		if engineSchema > 0 && rec.EngineSchema != engineSchema {
			rep.DroppedStale++
			continue
		}
		keep = append(keep, rec)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].Key < keep[j].Key })
	rep.Live = len(keep)

	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return rep, err
		}
		s.active = nil
	}
	old := make([]string, len(s.segs))
	for i, seg := range s.segs {
		old[i] = seg.Name
	}
	var buf []byte
	for i := range keep {
		var err error
		if buf, _, err = appendLine(buf, &keep[i], keep[i].Payload); err != nil {
			return rep, err
		}
	}
	name := fmt.Sprintf(segFormat, s.nextSeg)
	s.nextSeg++
	if err := replaceFile(filepath.Join(s.dir, name), buf); err != nil {
		return rep, err
	}
	for _, seg := range old {
		if err := os.Remove(filepath.Join(s.dir, seg)); err != nil {
			return rep, err
		}
		rep.RemovedSegments++
	}
	s.segs = []segmentInfo{{Name: name, Records: len(keep)}}
	s.recs = make(map[string]Record, len(keep))
	for _, rec := range keep {
		s.recs[rec.Key] = rec
	}
	s.total = len(keep)
	s.activeBytes = 0
	s.activeName = ""
	s.offsets = map[string]int64{name: int64(len(buf))}
	s.lines = map[string]int{name: len(keep)}
	return rep, s.writeIndexLocked()
}

// DiffReport compares two stores' live records.
type DiffReport struct {
	OnlyA  []Record // keys present only in A
	OnlyB  []Record // keys present only in B
	Differ []Record // keys in both whose payloads differ (A's record)
	Equal  int
}

// Diff compares the live records of two stores by canonical key and
// payload bytes.
func Diff(a, b *Store) DiffReport {
	var rep DiffReport
	bByKey := map[string]Record{}
	for _, rec := range b.Records() {
		bByKey[rec.Key] = rec
	}
	for _, ra := range a.Records() {
		rb, ok := bByKey[ra.Key]
		if !ok {
			rep.OnlyA = append(rep.OnlyA, ra)
			continue
		}
		delete(bByKey, ra.Key)
		if !bytes.Equal(ra.Payload, rb.Payload) {
			rep.Differ = append(rep.Differ, ra)
		} else {
			rep.Equal++
		}
	}
	for _, rb := range bByKey {
		rep.OnlyB = append(rep.OnlyB, rb)
	}
	sort.Slice(rep.OnlyB, func(i, j int) bool { return rep.OnlyB[i].Point < rep.OnlyB[j].Point })
	return rep
}

// replaceFile atomically replaces path with data via tmp+rename in the
// same directory. The tmp name carries the pid so shared-store writers
// never scribble into each other's in-flight replace.
func replaceFile(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // manifest/index structs always encode
	}
	return append(b, '\n')
}

// VerifyReport is the result of a full offline scan of a store.
type VerifyReport struct {
	Segments    []string
	Records     int // valid records across all segments (incl. superseded)
	Live        int
	Corruptions []Corruption
	StaleEngine int // records whose engine schema differs from the expected one
}

// Verify reopens dir from scratch, read-only, and reports what a fresh
// reader would see: valid and live record counts, every corrupt line,
// and — when engineSchema > 0 — how many records a GC would drop as
// stale. A path that holds no store is an error, never a freshly
// created empty store that would "verify" clean.
func Verify(dir string, engineSchema int) (VerifyReport, error) {
	st, err := Open(dir, Options{Mode: ReadOnly})
	if err != nil {
		return VerifyReport{}, err
	}
	defer st.Close()
	var rep VerifyReport
	for _, seg := range st.segs {
		rep.Segments = append(rep.Segments, seg.Name)
	}
	rep.Records = st.total
	rep.Live = st.Len()
	rep.Corruptions = st.Corruptions()
	if engineSchema > 0 {
		for _, rec := range st.Records() {
			if rec.EngineSchema != engineSchema {
				rep.StaleEngine++
			}
		}
	}
	return rep, nil
}

// FormatCount is a tiny helper for CLI summaries ("3 records", "1
// record").
func FormatCount(n int, noun string) string {
	if n == 1 {
		return fmt.Sprintf("1 %s", noun)
	}
	return fmt.Sprintf("%d %ss", n, noun)
}
