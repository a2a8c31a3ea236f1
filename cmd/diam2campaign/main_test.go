package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"diam2/internal/campaign"
)

// campaignArgs drives run in-process and returns its exit status,
// stdout and stderr.
func campaignArgs(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTailArgsValueFlags: value flags after the subcommand are parsed
// like the ones before it, and the positional arguments among them
// stay the subcommand's.
func TestTailArgsValueFlags(t *testing.T) {
	storeDir := t.TempDir()
	if code, out, errOut := campaignArgs("-store", storeDir, "submit", "-name", "fig6", "pos"); code != 0 || out != fmt.Sprintf("submitted %q to %s\n", "fig6", campaign.DirFor(storeDir)) {
		t.Fatalf("submit -name fig6 pos: exit %d:\n%s%s", code, out, errOut)
	}
	m, err := campaign.ReadManifest(campaign.DirFor(storeDir))
	if err != nil || m == nil || m.Name != "fig6" || !slices.Equal(m.Args, []string{"pos"}) {
		t.Fatalf("manifest = %+v, %v; want fig6 with args [pos]", m, err)
	}
	// serve reaches its listener with the trailing -http value: a port
	// already taken fails there, after the flags were accepted.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	if code, _, errOut := campaignArgs("-store", storeDir, "serve", "-http", addr); code != 1 || !strings.HasPrefix(errOut, "diam2campaign: listen "+addr+": ") {
		t.Errorf("serve -http %s (taken): exit %d, %q; want the listen error", addr, code, errOut)
	}
}

// TestTailArgsRejectsUnknownFlags: an unknown flag after the
// subcommand, or a value flag without its value, exits 2 with the flag
// package's message.
func TestTailArgsRejectsUnknownFlags(t *testing.T) {
	storeDir := t.TempDir()
	for _, typo := range []string{"-htpp", "--serve", "-n"} {
		code, out, errOut := campaignArgs("-store", storeDir, "serve", typo, "x")
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "flag provided but not defined: -"+strings.TrimLeft(typo, "-")+"\n") {
			t.Errorf("serve %s x: exit %d, stdout %q, stderr %q; want exit 2 and the flag package's refusal", typo, code, out, errOut)
		}
	}
	if code, _, errOut := campaignArgs("-store", storeDir, "serve", "-http"); code != 2 || !strings.HasPrefix(errOut, "flag needs an argument: -http\n") {
		t.Errorf("serve -http with no value: exit %d, %q", code, errOut)
	}
}

// TestTailArgsPassThrough: everything after "--" is the workers'
// argument list, stored verbatim even though it is flag-shaped.
func TestTailArgsPassThrough(t *testing.T) {
	storeDir := t.TempDir()
	want := []string{"-fig", "6a", "-scale", "paper", "--", "-x"}
	if code, out, errOut := campaignArgs(append([]string{"-store", storeDir, "submit", "-name", "fig6", "--"}, want...)...); code != 0 {
		t.Fatalf("submit -- ARGS: exit %d:\n%s%s", code, out, errOut)
	}
	m, err := campaign.ReadManifest(campaign.DirFor(storeDir))
	if err != nil || m == nil || !slices.Equal(m.Args, want) {
		t.Fatalf("manifest = %+v, %v; want args %v", m, err, want)
	}
}

func TestRunValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-store", "/nonexistent", "status", "stray"}, 1, "takes no arguments"},
		{[]string{"-store", "/nonexistent", "submit"}, 1, "needs -name"},
		{[]string{"-store", "/nonexistent", "serve"}, 1, "needs -http"},
		{[]string{"-store", "/nonexistent", "nonsense"}, 1, "unknown subcommand"},
		{[]string{"status"}, 2, "usage: diam2campaign -store DIR"},
		{[]string{"-store", "/nonexistent"}, 2, "usage: diam2campaign -store DIR"},
	} {
		if code, _, errOut := campaignArgs(c.args...); code != c.code || !strings.Contains(errOut, c.want) {
			t.Errorf("%v: exit %d, %q; want exit %d and %q", c.args, code, errOut, c.code, c.want)
		}
	}
}

func TestSubmitFirstWriterWins(t *testing.T) {
	storeDir := t.TempDir()
	campDir := campaign.DirFor(storeDir)
	if err := submit(io.Discard, campDir, "fig 6a", []string{"-fig", "6a"}); err != nil {
		t.Fatal(err)
	}
	err := submit(io.Discard, campDir, "other", nil)
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
