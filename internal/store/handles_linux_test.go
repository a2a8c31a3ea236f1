package store

import (
	"os"
	"testing"
)

// TestCloseReleasesHandles: a store holds one handle per segment
// between Open and Close, and Close releases all of them. Fifty
// sessions on one store (each starts a segment of its own, so the last
// opens hold dozens) leave the process's descriptor count as it was.
func TestCloseReleasesHandles(t *testing.T) {
	dir := t.TempDir()
	session := func(i int) {
		t.Helper()
		st := mustOpen(t, dir)
		rec := testRecord(i)
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Get(rec.Key); !ok || string(got.Payload) != string(rec.Payload) {
			t.Fatalf("Get(%d) = %s, %v", i, got.Payload, ok)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	session(0) // the first file operation may set up the runtime's poller
	before := openFDs(t)
	for i := 1; i <= 50; i++ {
		session(i)
	}
	if after := openFDs(t); after != before {
		t.Errorf("open descriptors went from %d to %d over 50 sessions", before, after)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}
