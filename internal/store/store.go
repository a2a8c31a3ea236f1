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
	"slices"
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

// segment is one segment file the store knows: its entry in the index
// file, the cursor up to which this process has consumed complete
// records (the resume point for Refresh, which tails other writers'
// segments), and the handle every read of its records goes through.
type segment struct {
	segmentInfo
	cur segCursor
	f   *os.File // opened at scan or creation, closed by Close and GC
}

// loc is where a key's latest line lies: which segment (its position
// in Store.segs), the byte offset and the length of the whole framed
// line, newline included.
type loc struct {
	seg uint32
	n   uint32
	off int64
}

// Store is an open result store. All methods are safe for concurrent
// use by the goroutines of one process; writers in separate processes
// cooperate only when each opened the store Shared.
//
// The segment files are the only copy of each record: the store keeps
// an index from canonical key to the location of the key's latest
// line, and a read decodes that line from disk.
type Store struct {
	mu   sync.Mutex
	dir  string
	logf func(format string, args ...any)
	mode Mode
	lock *os.File // advisory flock holder; nil when read-only

	idx     map[string]loc // key -> its latest line
	total   int
	segs    []segment
	pos     map[string]int // segment name -> position in segs
	corrupt []Corruption
	nextSeg int
	buf     []byte // the line Get reads, reused

	// active is the position in segs of the segment Put appends to,
	// -1 when there is none; its handle was opened read-write.
	active int
	closed bool

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
	s := &Store{dir: dir, logf: logf, mode: opts.Mode, active: -1,
		idx: make(map[string]loc), pos: make(map[string]int)}
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
		s.closeSegments()
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

// scan validates segment i's records from its cursor to size, the
// segment's length, and indexes the valid ones. Every line is framed as
// "CRC32HEX <json>\n"; a line that fails framing, checksum or JSON
// decoding is reported and skipped. A final line with no newline is a
// torn tail: the cursor stops before it, so that — when the segment
// belongs to another live writer (shared mode) — a later Refresh
// re-reads it once the append completes. In exclusive or read-only
// mode nobody can still be appending, so the torn tail is reported as
// the corruption it is (the expected SIGKILL signature).
func (s *Store) scan(i int, size int64) (corrs []Corruption, err error) {
	sg := &s.segs[i]
	// A tail of a few records, which is what Refresh reads after a
	// peer's append, gets a buffer its size, not the whole-segment one.
	left := size - sg.cur.off
	r := bufio.NewReaderSize(io.NewSectionReader(sg.f, sg.cur.off, left), int(min(left, 1<<20)))
	for {
		raw, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return corrs, rerr
		}
		if len(raw) > 0 {
			if raw[len(raw)-1] != '\n' {
				if s.mode != Shared {
					corrs = append(corrs, Corruption{Segment: sg.Name, Line: sg.cur.line + 1,
						Reason: "truncated tail record (no trailing newline)"})
				}
				return corrs, nil
			}
			at := loc{seg: uint32(i), n: uint32(len(raw)), off: sg.cur.off}
			sg.cur.line++
			sg.cur.off += int64(len(raw))
			if rec, reason := parseLine(raw); reason != "" {
				corrs = append(corrs, Corruption{Segment: sg.Name, Line: sg.cur.line, Reason: reason})
			} else {
				s.idx[rec.Key] = at
				s.total++
				sg.Records++
			}
		}
		if rerr == io.EOF {
			return corrs, nil
		}
	}
}

// Refresh makes other processes' appends visible: it scans segments
// that appeared since the last scan and tails known segments past the
// consumed cursor. The store's own active segment is skipped (its
// records are already indexed). An unterminated final line in
// another writer's segment is left unconsumed — it is an in-flight
// append that a later Refresh completes, or a dead writer's torn tail
// whose record was lost in the kill and gets recomputed under the
// lease protocol anyway. A closed store holds no handles to scan
// through, and refuses.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	return s.refresh()
}

// refresh is Refresh without the lock, and Open's whole scan: on an
// empty store every segment is new and is read from its first byte, in
// name order, so later appends of a key win. A new segment's handle is
// opened here and kept.
func (s *Store) refresh() error {
	names, err := filepath.Glob(filepath.Join(s.dir, segGlob))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, path := range names {
		name := filepath.Base(path)
		i, known := s.pos[name]
		if known && i == s.active {
			continue
		}
		if !known {
			f, err := os.Open(path)
			if err != nil {
				continue // raced a concurrent removal; a reopen reconciles
			}
			i = len(s.segs)
			s.pos[name] = i
			s.segs = append(s.segs, segment{segmentInfo: segmentInfo{Name: name}, f: f})
		}
		fi, err := s.segs[i].f.Stat()
		if err != nil {
			return err
		}
		if known && fi.Size() <= s.segs[i].cur.off {
			continue
		}
		corrs, err := s.scan(i, fi.Size())
		if err != nil {
			return err
		}
		for _, c := range corrs {
			s.logf("store: skipped corrupt record %s", c)
		}
		s.corrupt = append(s.corrupt, corrs...)
	}
	return nil
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

// Get returns the stored record for a canonical key, read from its
// segment. A line whose bytes changed on disk after they were indexed
// (a flipped byte, a truncated segment) fails its checks again here:
// the Get is a miss, and Options.Logf hears the segment and offset.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.idx[key]
	var rec Record
	if ok {
		rec, ok = s.read(key, at)
	}
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return rec, ok
}

// read reads key's line at at into the store's buffer and decodes it
// with the scan's checks, plus two of its own: the line still ends
// where it did, and it holds key. It reads through the segment's
// handle, or after Close through one opened for this read. A failed
// check is logged with the segment and byte offset.
func (s *Store) read(key string, at loc) (Record, bool) {
	sg := &s.segs[at.seg]
	f, err := sg.f, error(nil)
	if f == nil {
		if f, err = os.Open(filepath.Join(s.dir, sg.Name)); err == nil {
			defer f.Close()
		}
	}
	s.buf = slices.Grow(s.buf[:0], int(at.n))[:at.n]
	if err == nil {
		_, err = f.ReadAt(s.buf, at.off)
	}
	var rec Record
	reason := ""
	switch {
	case err != nil:
		reason = "read failed: " + err.Error()
	case s.buf[at.n-1] != '\n':
		reason = "the line no longer ends in a newline"
	default:
		if rec, reason = parseLine(s.buf); reason == "" && rec.Key != key {
			reason = "the line holds key " + ShortKey(rec.Key)
		}
	}
	if reason != "" {
		s.logf("store: record %s in %s at byte %d unreadable: %s", ShortKey(key), sg.Name, at.off, reason)
		return Record{}, false
	}
	return rec, true
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Put appends a record and makes it the live result for its key. The
// write is a single checksummed line on an append-only segment: a kill
// during Put loses at most this record, never an earlier one. The
// payload is validated and compacted as json.Marshal does, and Get
// returns the compacted bytes, the ones a reopen reads.
func (s *Store) Put(rec Record) error {
	return PutValue(s, rec, rec.Payload)
}

// PutValue is Put with rec's payload given as a value: v is encoded
// once, into the record's line. The line is what Put writes for the
// payload json.Marshal(v).
func PutValue[T any](s *Store, rec Record, v T) error {
	if rec.Key == "" {
		return errors.New("store: record has no key")
	}
	rec.StoreSchema = Schema
	line, _, err := appendLine(nil, &rec, v)
	if err != nil {
		return fmt.Errorf("store: unencodable record %s: %w", ShortKey(rec.Key), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.active < 0 || s.segs[s.active].cur.off+int64(len(line)) > maxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	sg := &s.segs[s.active]
	if n, err := sg.f.Write(line); err != nil {
		// A failed write that left a torn line behind abandons the
		// segment, so the next Put starts a fresh one instead of gluing
		// its record onto the torn bytes; a reopen reports them as the
		// old segment's truncated tail. A write that wrote nothing (a
		// full disk) keeps the segment. Either way the handle still
		// reads the segment's earlier records.
		if n > 0 {
			s.active = -1
		}
		return err
	}
	s.idx[rec.Key] = loc{seg: uint32(s.active), n: uint32(len(line)), off: sg.cur.off}
	sg.cur.off += int64(len(line))
	sg.cur.line++
	sg.Records++
	s.total++
	s.puts++
	return nil
}

// rotateLocked retires the active segment, whose handle stays open
// for reads, and creates a fresh one. A new writer session always
// starts its own segment, so it never appends after a possibly-torn
// tail of an older file. Retiring a full segment rewrites the index,
// except for a shared (campaign) writer: its view of other workers'
// segments is partial, so its index would only record drift for the
// next open to warn about.
func (s *Store) rotateLocked() error {
	if s.active >= 0 {
		s.active = -1
		if s.mode != Shared {
			if err := s.writeIndexLocked(); err != nil {
				return err
			}
		}
	}
	for {
		name := fmt.Sprintf(segFormat, s.nextSeg)
		s.nextSeg++
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		s.active = len(s.segs)
		s.pos[name] = s.active
		s.segs = append(s.segs, segment{segmentInfo: segmentInfo{Name: name}, f: f})
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
	for i := range s.segs {
		segs[i] = s.segs[i].segmentInfo
	}
	idx := indexFile{StoreSchema: Schema, Segments: segs, Records: len(s.idx)}
	return replaceFile(filepath.Join(s.dir, indexName), mustJSON(idx))
}

// closeSegments closes every segment handle and returns the active
// segment's Close error, the one that can report a lost write.
func (s *Store) closeSegments() error {
	var err error
	for i := range s.segs {
		if f := s.segs[i].f; f != nil {
			if cerr := f.Close(); i == s.active {
				err = cerr
			}
			s.segs[i].f = nil
		}
	}
	s.active = -1
	return err
}

// Close flushes the index and closes the segment handles. The store
// remains valid on disk without Close ever running — that is the
// crash-safety contract — but a clean Close keeps the index current.
// A read-only store closes without writing to the disk. After Close
// Get and Records still answer, each read opening the segments it
// needs and closing them again; Put, GC and Refresh fail, and a second
// Close does nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.unlock()
	if s.closed {
		return nil // nothing written since; nothing to flush
	}
	s.closed = true
	var err error
	if s.mode == Create || s.mode == Existing { // a campaign worker's partial view must not become the index
		err = s.writeIndexLocked()
	}
	if cerr := s.closeSegments(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the store's current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Records:  len(s.idx),
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
// key, for the rare distinct configurations sharing a point string). A
// record whose line no longer reads back is logged and left out.
func (s *Store) Records() []Record {
	s.mu.Lock()
	out, _ := s.liveLocked()
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Point != out[j].Point {
			return out[i].Point < out[j].Point
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// liveLocked decodes every live record, reading the segments one at a
// time and each one's lines in file order. It returns the records in
// that order, and how many lines no longer read back (bytes damaged
// since they were indexed, logged as Get logs them).
func (s *Store) liveLocked() (recs []Record, bad int) {
	type entry struct {
		key string
		at  loc
	}
	live := make([]entry, 0, len(s.idx))
	for key, at := range s.idx {
		live = append(live, entry{key, at})
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i].at, live[j].at
		if a.seg != b.seg {
			return a.seg < b.seg
		}
		return a.off < b.off
	})
	recs = make([]Record, 0, len(live))
	for _, e := range live {
		if rec, ok := s.read(e.key, e.at); ok {
			recs = append(recs, rec)
		} else {
			bad++
		}
	}
	return recs, bad
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
// and wins). The new index is built from the offsets GC writes. A live
// record whose line no longer reads back fails GC before it writes or
// removes anything: a reopen's scan skips such lines, and a GC after it
// keeps whatever copy of the key is still whole.
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
	recs, bad := s.liveLocked()
	if bad > 0 {
		return rep, fmt.Errorf("store: gc found %s in %s damaged since it was opened; reopen the store and gc again",
			FormatCount(bad, "live record"), s.dir)
	}
	rep.DroppedDupes = s.total - len(recs)
	keep := recs[:0]
	for _, rec := range recs {
		if engineSchema > 0 && rec.EngineSchema != engineSchema {
			rep.DroppedStale++
			continue
		}
		keep = append(keep, rec)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].Key < keep[j].Key })
	rep.Live = len(keep)

	var buf []byte
	idx := make(map[string]loc, len(keep))
	for i := range keep {
		off := len(buf)
		var err error
		if buf, _, err = appendLine(buf, &keep[i], keep[i].Payload); err != nil {
			return rep, err
		}
		idx[keep[i].Key] = loc{n: uint32(len(buf) - off), off: int64(off)}
	}
	name := fmt.Sprintf(segFormat, s.nextSeg)
	s.nextSeg++
	path := filepath.Join(s.dir, name)
	if err := replaceFile(path, buf); err != nil {
		return rep, err
	}
	f, err := os.Open(path)
	if err != nil {
		return rep, err
	}
	if err := s.closeSegments(); err != nil {
		f.Close()
		return rep, err
	}
	old := s.segs
	s.segs = []segment{{segmentInfo: segmentInfo{Name: name, Records: len(keep)},
		cur: segCursor{off: int64(len(buf)), line: len(keep)}, f: f}}
	s.pos = map[string]int{name: 0}
	s.idx = idx
	s.total = len(keep)
	for _, seg := range old {
		if err := os.Remove(filepath.Join(s.dir, seg.Name)); err != nil {
			return rep, err
		}
		rep.RemovedSegments++
	}
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
	recsB := b.Records()
	inB := make(map[string]int, len(recsB)) // key -> position in recsB
	for i, rec := range recsB {
		inB[rec.Key] = i
	}
	for _, ra := range a.Records() {
		i, ok := inB[ra.Key]
		if !ok {
			rep.OnlyA = append(rep.OnlyA, ra)
			continue
		}
		delete(inB, ra.Key)
		if !bytes.Equal(ra.Payload, recsB[i].Payload) {
			rep.Differ = append(rep.Differ, ra)
		} else {
			rep.Equal++
		}
	}
	for _, rb := range recsB { // in Records order: by point, then key
		if _, left := inB[rb.Key]; left {
			rep.OnlyB = append(rep.OnlyB, rb)
		}
	}
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
