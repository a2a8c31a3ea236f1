package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diam2/internal/harness"
)

// TestRunScreenScreenOnly: -screen without -escalate-band answers the
// grid analytically, renders the summary table, and writes the CSV
// when -csvdir is set.
func TestRunScreenScreenOnly(t *testing.T) {
	dir := t.TempDir()
	o := screenOpts{grid: 5}
	if err := runScreen(harness.QuickScale(), harness.SmallPresets(), o, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "screen.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// Header + one row per (preset, alg, pat) combo: 3 x 2 x 2.
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 13 {
		t.Errorf("screen.csv has %d lines, want 13 (header + 12 combos):\n%s", lines, data)
	}
	// Without -csvdir only the stdout table is rendered.
	if err := runScreen(harness.QuickScale(), harness.SmallPresets()[:1], o, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunScreenEscalateCheck: a tight band over one preset escalates
// the near-saturation points through the simulator and -screen-check
// passes (these loads are a subset of the grid scripts/screen_smoke.sh
// gates in CI).
func TestRunScreenEscalateCheck(t *testing.T) {
	dir := t.TempDir()
	o := screenOpts{grid: 4, band: 0.05, check: true}
	if err := runScreen(harness.QuickScale(), harness.SmallPresets()[:1], o, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "escalate.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") < 2 {
		t.Errorf("escalation pass selected no points:\n%s", data)
	}
}
