package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFluidPrintsWorstCaseBounds drives run in-process: -fluid must
// print the Section 4.2 worst-case MIN saturation of each paper
// configuration, 1/(2p) for SF, 1/h for MLFM and 1/k for OFT — 1/18,
// 1/20, 1/15 and 1/12 to three places.
func TestFluidPrintsWorstCaseBounds(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-fluid"}, &out, &errOut); code != 0 {
		t.Fatalf("-fluid: exit %d\n%s", code, errOut.String())
	}
	want := map[string]string{
		"SF(q=13,p=9)":  "0.056",
		"SF(q=13,p=10)": "0.050",
		"MLFM(h=15)":    "0.067",
		"OFT(k=12)":     "0.083",
	}
	got := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		// Rows read: topology, UNI MIN, WC MIN, WC INR.
		if f := strings.Fields(line); len(f) == 4 {
			if _, ok := want[f[0]]; ok {
				got[f[0]] = f[2]
			}
		}
	}
	for name, sat := range want {
		if got[name] != sat {
			t.Errorf("%s WC MIN saturation %q, want %s\n%s", name, got[name], sat, out.String())
		}
	}
}

// TestDrawUnknownTopology: an unknown -draw name is a failed run (exit
// 1, one line on stderr), and nothing is written.
func TestDrawUnknownTopology(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-draw", "nope"}, &out, &errOut); code != 1 {
		t.Fatalf("-draw nope: exit %d, want 1", code)
	}
	if out.Len() != 0 || !strings.HasPrefix(errOut.String(), "diam2topo: ") || strings.Count(errOut.String(), "\n") != 1 {
		t.Errorf("-draw nope wrote %d bytes, stderr %q", out.Len(), errOut.String())
	}
}

// TestNoAnalysisIsUsage: a command line that selects no analysis
// prints the usage and exits 2; the tuning flags alone select none.
func TestNoAnalysisIsUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-seed", "7", "-restarts", "3", "-passes", "5"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || !strings.HasPrefix(errOut.String(), "Usage of diam2topo:\n") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want the usage and exit 2", args, code, out.String(), errOut.String())
		}
	}
}
