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
	*fluidSat = true
	defer func() { *fluidSat = false }()
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
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

// TestDrawUnknownTopology: an unknown -draw name is an error, and
// nothing is written.
func TestDrawUnknownTopology(t *testing.T) {
	*draw = "nope"
	defer func() { *draw = "" }()
	var out bytes.Buffer
	if err := run(&out); err == nil {
		t.Fatal("run -draw nope succeeded")
	}
	if out.Len() != 0 {
		t.Errorf("run -draw nope wrote %d bytes", out.Len())
	}
}
