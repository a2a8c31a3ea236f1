package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diam2/internal/campaign"
)

func TestTailArgsValueFlags(t *testing.T) {
	var httpAddr, name string
	args, err := tailArgs([]string{"-http", ":0", "-name", "fig6", "pos"}, &httpAddr, &name)
	if err != nil {
		t.Fatal(err)
	}
	if httpAddr != ":0" || name != "fig6" {
		t.Errorf("flags not picked up: http=%q name=%q", httpAddr, name)
	}
	if len(args) != 1 || args[0] != "pos" {
		t.Errorf("positional args = %v, want [pos]", args)
	}
}

func TestTailArgsRejectsUnknownFlags(t *testing.T) {
	for _, typo := range []string{"-htpp", "--serve", "-n"} {
		var httpAddr, name string
		if _, err := tailArgs([]string{typo, "x"}, &httpAddr, &name); err == nil {
			t.Errorf("tailArgs accepted unknown flag %q", typo)
		}
	}
	var httpAddr, name string
	if _, err := tailArgs([]string{"-http"}, &httpAddr, &name); err == nil {
		t.Error("tailArgs accepted -http with no value")
	}
}

// TestTailArgsPassThrough: everything after "--" is the workers'
// argument list, stored verbatim even though it is flag-shaped.
func TestTailArgsPassThrough(t *testing.T) {
	var httpAddr, name string
	args, err := tailArgs([]string{"-name", "fig6", "--", "-fig", "6a", "-scale", "paper"}, &httpAddr, &name)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-fig", "6a", "-scale", "paper"}
	if len(args) != len(want) {
		t.Fatalf("args = %v, want %v", args, want)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Fatalf("args = %v, want %v", args, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("/nonexistent", "status", []string{"stray"}, "", ""); err == nil || !strings.Contains(err.Error(), "takes no arguments") {
		t.Errorf("status with stray args = %v", err)
	}
	if err := run("/nonexistent", "submit", nil, "", ""); err == nil || !strings.Contains(err.Error(), "needs -name") {
		t.Errorf("submit without -name = %v", err)
	}
	if err := run("/nonexistent", "serve", nil, "", ""); err == nil || !strings.Contains(err.Error(), "needs -http") {
		t.Errorf("serve without -http = %v", err)
	}
	if err := run("/nonexistent", "nonsense", nil, "", ""); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("unknown subcommand = %v", err)
	}
}

func TestSubmitFirstWriterWins(t *testing.T) {
	storeDir := t.TempDir()
	campDir := campaign.DirFor(storeDir)
	if err := submit(campDir, "fig 6a", []string{"-fig", "6a"}); err != nil {
		t.Fatal(err)
	}
	err := submit(campDir, "other", nil)
	if err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Fatalf("second submit = %v, want a conflict", err)
	}
	m, err := campaign.ReadManifest(campDir)
	if err != nil || m == nil || m.Name != "fig 6a" || len(m.Args) != 2 {
		t.Fatalf("manifest = %+v, %v", m, err)
	}
}

// TestServeEndpoints exercises the coordinator mux against a real
// campaign directory: full status, compact progress, and the submit
// endpoint including its conflict answer.
func TestServeEndpoints(t *testing.T) {
	storeDir := t.TempDir()
	campDir := campaign.DirFor(storeDir)
	w, err := campaign.NewWorker(campDir, "w1", campaign.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Build the same mux serve() listens with, but under httptest.
	mux := coordinatorMux(storeDir, campDir)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/campaign")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st campaign.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/campaign not a status scan: %v (%s)", err, body)
	}
	if len(st.Workers) != 1 || st.Workers[0].Owner != "w1" || !st.Workers[0].Live {
		t.Fatalf("/campaign workers = %+v", st.Workers)
	}

	resp, err = http.Get(srv.URL + "/campaign/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var prog progressBody
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatalf("/campaign/progress not JSON: %v", err)
	}
	if prog.Workers != 1 || prog.LiveWorkers != 1 {
		t.Errorf("progress = %+v", prog)
	}
	if prog.Records != -1 {
		t.Errorf("progress.Records = %d, want -1 (no store created yet)", prog.Records)
	}

	post := func(payload string) (int, string) {
		resp, err := http.Post(srv.URL+"/campaign/submit", "application/json", bytes.NewBufferString(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, _ := post(`{"args":["-fig","6a"]}`); code != http.StatusBadRequest {
		t.Errorf("nameless submit status %d, want 400", code)
	}
	if code, body := post(`{"name":"fig 6a","args":["-fig","6a"]}`); code != http.StatusCreated {
		t.Errorf("submit status %d (%s), want 201", code, body)
	}
	if code, _ := post(`{"name":"again"}`); code != http.StatusConflict {
		t.Errorf("re-submit status %d, want 409", code)
	}
	if resp, err := http.Get(srv.URL + "/campaign/submit"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET submit status %d, want 405", resp.StatusCode)
		}
	}
}
