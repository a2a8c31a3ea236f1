package store

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
)

// appendChildDir, when set, makes TestFailedAppendStartsFreshSegment
// the child half: it writes the store in that directory under a file
// size limit instead of checking one.
const appendChildDir = "DIAM2_STORE_APPEND_CHILD"

// TestFailedAppendStartsFreshSegment: a Put that fails mid-write (here
// EFBIG under RLIMIT_FSIZE, the same path as ENOSPC) may leave a torn
// line in its segment. A later successful Put must not be appended
// onto those bytes, or its record is lost behind a checksum mismatch.
// The limit applies to the whole process, so a re-executed copy of
// the test binary does the writing.
func TestFailedAppendStartsFreshSegment(t *testing.T) {
	if dir := os.Getenv(appendChildDir); dir != "" {
		writeUnderFileSizeLimit(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedAppendStartsFreshSegment$", "-test.v")
	cmd.Env = append(os.Environ(), appendChildDir+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	st, err := Open(dir, Options{Mode: ReadOnly, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, i := range []int{0, 3, 5} {
		if _, ok := st.Get(testRecord(i).Key); !ok {
			t.Errorf("record %d, whose Put returned nil, is lost", i)
		}
	}
	// Records 1 and 2 each tore a segment; record 4 wrote nothing, so
	// record 5 shares record 3's segment.
	if segs := segFiles(t, dir); len(segs) != 3 {
		t.Errorf("segments %v, want 3: a failed write that wrote nothing must not start a new one", segs)
	}
	for _, c := range st.Corruptions() {
		if !strings.Contains(c.Reason, "truncated tail") {
			t.Errorf("corruption %s, want only the failed appends' truncated tails", c)
		}
	}
}

// writeUnderFileSizeLimit puts record 0, then records 1 and 2 (each
// line longer than the limit) under a 600-byte RLIMIT_FSIZE with
// SIGXFSZ ignored, so both fail; then it lifts the limit and puts
// record 3. Last, with the limit at the active segment's size, record
// 4's write fails having written nothing, and record 5 follows once
// the limit is lifted again.
func writeUnderFileSizeLimit(t *testing.T, dir string) {
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	limit := old
	limit.Cur = 600
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		rec := testRecord(i)
		rec.Payload = json.RawMessage(`{"blob":"` + strings.Repeat("x", 600) + `"}`)
		if err := st.Put(rec); !errors.Is(err, syscall.EFBIG) {
			t.Errorf("Put of record %d over the size limit = %v, want EFBIG", i, err)
		}
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord(3)); err != nil {
		t.Fatalf("Put after the limit was lifted: %v", err)
	}
	limit.Cur = uint64(st.segs[st.active].cur.off)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord(4)); !errors.Is(err, syscall.EFBIG) {
		t.Errorf("Put of record 4 at the size limit = %v, want EFBIG", err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord(5)); err != nil {
		t.Fatalf("Put after the limit was lifted: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
