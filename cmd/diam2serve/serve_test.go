package main

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
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

// TestServeQueryAndDrain runs the server in-process on a loopback port
// with escalation off: a cold query is answered (and recorded) by the
// fluid tier, the identical re-issue by the fluid-cache tier, and
// SIGTERM, sent only once the server has announced its address and
// so holds the signal, drains it to exit 0.
func TestServeQueryAndDrain(t *testing.T) {
	var stdout strings.Builder
	var stderr lockedBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-http", "127.0.0.1:0", "-store", t.TempDir(), "-escalate-band", "0"}, &stdout, &stderr)
	}()
	announce := regexp.MustCompile(`at (http://[0-9.:]+)/query`)
	var base string
	for deadline := time.Now().Add(30 * time.Second); base == ""; time.Sleep(10 * time.Millisecond) {
		select {
		case code := <-exit:
			t.Fatalf("server exited %d before announcing its address: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address: %s", stderr.String())
		}
		if m := announce.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
		}
	}

	for _, want := range []string{"fluid", "fluid-cache"} {
		resp, err := http.Get(base + "/query?topo=SF(q=5,p=3)&routing=MIN&pattern=UNI&load=0.5")
		if err != nil {
			t.Fatal(err)
		}
		var ans struct{ Tier string }
		err = json.NewDecoder(resp.Body).Decode(&ans)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || ans.Tier != want {
			t.Errorf("query: status %d, tier %q, err %v; want 200 from tier %q", resp.StatusCode, ans.Tier, err, want)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 || !strings.Contains(stderr.String(), "diam2serve: drained\n") || stdout.Len() != 0 {
			t.Errorf("exit %d, stdout %q, stderr:\n%s\nwant exit 0 and \"diam2serve: drained\"", code, stdout.String(), stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("no exit 60 s after SIGTERM: %s", stderr.String())
	}
}
