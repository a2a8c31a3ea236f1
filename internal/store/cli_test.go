package store

import (
	"os"
	"strings"
	"testing"
)

// TestSummaryAndFormatCount: the one-line CLI report counts hits, puts
// and live records with correct pluralization (the smoke scripts grep
// for these exact forms).
func TestSummaryAndFormatCount(t *testing.T) {
	if got := FormatCount(1, "record"); got != "1 record" {
		t.Errorf("FormatCount(1) = %q", got)
	}
	if got := FormatCount(3, "segment"); got != "3 segments" {
		t.Errorf("FormatCount(3) = %q", got)
	}

	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := PointConfig{Point: "p1"}
	if err := st.Put(Record{Key: cfg.Key(), Point: "p1", Payload: []byte(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(cfg.Key()); !ok {
		t.Fatal("fresh put not readable")
	}
	sum := st.Summary()
	if !strings.Contains(sum, "1 reused, 1 computed") || !strings.Contains(sum, "1 record") {
		t.Errorf("Summary = %q, want 1 reused / 1 computed / 1 record", sum)
	}
}

// TestOpenCLIVariants: the one CLI opener creates a store in the
// writing modes, refuses a missing path in the maintenance and
// inspection modes, and sends scan warnings to the writer it is given,
// prefixed with the command name.
func TestOpenCLIVariants(t *testing.T) {
	dir := t.TempDir()
	var warn strings.Builder
	st, err := OpenCLI(dir, "testcmd", Create, &warn)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	missing := dir + "/nope"
	for _, mode := range []Mode{Existing, ReadOnly} {
		if _, err := OpenCLI(missing, "testcmd", mode, &warn); err == nil {
			t.Errorf("mode %d conjured a store from a missing path", mode)
		}
	}
	f, err := os.OpenFile(segFiles(t, dir)[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, mode := range []Mode{Shared, Existing, ReadOnly} {
		warn.Reset()
		st, err := OpenCLI(dir, "testcmd", mode, &warn)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if want := "testcmd: store: skipped corrupt record seg-000001.jsonl:2: "; !strings.HasPrefix(warn.String(), want) {
			t.Errorf("mode %d warned %q, want a line starting %q", mode, warn.String(), want)
		}
	}
}
