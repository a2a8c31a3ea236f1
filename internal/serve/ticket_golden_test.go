package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diam2/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the ticket golden under testdata/")

// TestTicketJSONGolden pins the bytes /ticket/<id> and /tickets serve
// for one done escalation, with the server's clock fixed: the ticket's
// fields, their order and tags, and the verdict's simulator answer,
// relative error, tolerance and outcome. A change to how a ticket
// records its verdict must leave this file unchanged. Regenerate with
// go test ./internal/serve -run TestTicketJSONGolden -update.
func TestTicketJSONGolden(t *testing.T) {
	s, hs := newHTTPServer(t, nil)
	s.now = func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	ans, err := s.Resolve(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Escalation == nil || ans.Escalation.Ticket == "" {
		t.Fatalf("no escalation ticket: %+v", ans.Escalation)
	}
	waitTicket(t, s, ans.Escalation.Ticket)

	var got strings.Builder
	for _, path := range []string{"/ticket/" + ans.Escalation.Ticket, "/tickets"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v %s", path, resp.StatusCode, err, body)
		}
		fmt.Fprintf(&got, "GET %s\n%s", path, body)
	}

	golden := filepath.Join("testdata", "ticket.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got.String() != string(want) {
		t.Errorf("ticket bytes drifted from %s\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}

// TestTicketNoDeliveryJSON: an escalation whose simulator delivered
// nothing scores a relative error of +Inf, which JSON cannot carry. A
// done ticket with that verdict must still serve /ticket/<id> and the
// whole /tickets list, encoding "no delivery" as rel_err -1 and within
// false.
func TestTicketNoDeliveryJSON(t *testing.T) {
	s, hs := newHTTPServer(t, nil)
	tk := &ticket{Ticket: Ticket{ID: "esc-000009", State: TicketRunning}}
	s.mu.Lock()
	s.tickets[tk.ID] = tk
	s.tickets["esc-000010"] = &ticket{Ticket: Ticket{ID: "esc-000010", State: TicketQueued}}
	s.mu.Unlock()
	s.finishTicket(tk, &harness.Escalation{Sim: harness.LoadPoint{Load: 0.9}, RelErr: math.Inf(1), Tolerance: 0.16, Recorded: true}, nil)

	var one Ticket
	getJSON(t, hs.URL+"/ticket/esc-000009", &one)
	if one.State != TicketDone || one.Escalation == nil || one.RelErr != -1 || one.Within {
		t.Errorf("/ticket/esc-000009 = %+v %+v, want done with rel_err -1 and within false", one, one.Escalation)
	}
	var all struct {
		Count   int      `json:"count"`
		Tickets []Ticket `json:"tickets"`
	}
	getJSON(t, hs.URL+"/tickets", &all)
	if all.Count != 2 || len(all.Tickets) != 2 || all.Tickets[0].Escalation == nil || all.Tickets[0].RelErr != -1 {
		t.Errorf("/tickets = %+v, want both tickets, the first with rel_err -1", all)
	}
}
