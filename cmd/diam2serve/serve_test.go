package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"diam2/internal/campaign"
	"diam2/internal/store"
)

// lockedBuffer is a stderr the server writes from its goroutines while
// the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// server is one in-process run of diam2serve.
type server struct {
	base           string // announced base URL
	exit           chan int
	stdout, stderr lockedBuffer
}

// startServer runs the server in-process with args until it announces
// its address.
func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	s := &server{exit: make(chan int, 1)}
	go func() { s.exit <- run(args, &s.stdout, &s.stderr) }()
	announce := regexp.MustCompile(`at (http://[0-9.:]+)/query`)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		select {
		case code := <-s.exit:
			t.Fatalf("server exited %d before announcing its address: %s", code, s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address: %s", s.stderr.String())
		}
		if m := announce.FindStringSubmatch(s.stderr.String()); m != nil {
			s.base = m[1]
			return s
		}
	}
}

// getJSON decodes the 200 answer of GET url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
}

// drain sends SIGTERM, which the server holds once it has announced
// its address, and requires exit 0, "diam2serve: drained" and nothing
// on stdout.
func (s *server) drain(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-s.exit:
		if code != 0 || !strings.Contains(s.stderr.String(), "diam2serve: drained\n") || s.stdout.String() != "" {
			t.Errorf("exit %d, stdout %q, stderr:\n%s\nwant exit 0 and \"diam2serve: drained\"", code, s.stdout.String(), s.stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("no exit 60 s after SIGTERM: %s", s.stderr.String())
	}
}

// TestServeQueryAndDrain runs the server in-process on a loopback port
// with escalation off: a cold query is answered (and recorded) by the
// fluid tier, the identical re-issue by the fluid-cache tier, and
// SIGTERM drains it to exit 0.
func TestServeQueryAndDrain(t *testing.T) {
	srv := startServer(t, "-http", "127.0.0.1:0", "-store", t.TempDir(), "-escalate-band", "0")
	for _, want := range []string{"fluid", "fluid-cache"} {
		var ans struct{ Tier string }
		getJSON(t, srv.base+"/query?topo=SF(q=5,p=3)&routing=MIN&pattern=UNI&load=0.5", &ans)
		if ans.Tier != want {
			t.Errorf("query answered from tier %q, want %q", ans.Tier, want)
		}
	}
	srv.drain(t)
}

// TestServeCampaignEscalation runs the server as campaign worker W: a
// query inside the escalation band gets a ticket, the escalation runs
// under the lease protocol to "done" and records W as its worker (the
// fluid record, written outside the campaign, names none), and the
// SIGTERM drain leaves no worker file behind.
func TestServeCampaignEscalation(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, "-http", "127.0.0.1:0", "-store", dir,
		"-campaign", "-worker-id", "W", "-escalate-band", "0.15")
	var ans struct {
		Key        string
		Escalation struct{ Ticket string }
	}
	getJSON(t, srv.base+"/query?topo=SF(q=5,p=3)&routing=MIN&pattern=WC&load=0.18", &ans)
	if ans.Escalation.Ticket == "" {
		t.Fatalf("no escalation ticket for a load inside the band: %+v", ans)
	}
	var tk struct{ Key, State, Error string }
	for deadline := time.Now().Add(120 * time.Second); tk.State != "done"; time.Sleep(20 * time.Millisecond) {
		if tk.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("ticket %s: state %q, error %q", ans.Escalation.Ticket, tk.State, tk.Error)
		}
		getJSON(t, srv.base+"/ticket/"+ans.Escalation.Ticket, &tk)
	}
	srv.drain(t)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, c := range []struct{ key, worker string }{{tk.Key, "W"}, {ans.Key, ""}} {
		if rec, ok := st.Get(c.key); !ok || rec.Worker != c.worker {
			t.Errorf("record %s: found %v, worker %q; want worker %q", c.key, ok, rec.Worker, c.worker)
		}
	}
	if _, err := os.Stat(filepath.Join(campaign.DirFor(dir), "workers", "W.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("worker file after the drain: %v, want none", err)
	}
}
