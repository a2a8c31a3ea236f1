package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diam2/internal/harness"
)

// TestFastReport: -fast writes the analysis-only report to -o, with
// the paper configurations and the Fig. 3 cost table and no simulated
// figure, and notes the file on stdout.
func TestFastReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "REPORT.md")
	var stdout, stderr strings.Builder
	if code := run([]string{"-fast", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fast -o %s: exit %d\n%s", out, code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	for _, want := range []string{
		"## Construction and cost (Fig. 3)\n",
		"Paper configurations (Section 4.1)",
		"| SF(q=13,p=9) |",
		"## Bisection bandwidth (Fig. 4)\n",
		harness.Fig3Scalability([]int{24, 32, 48, 64}).Markdown(),
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "## Simulated figures") {
		t.Error("-fast report carries simulated figures")
	}
	if want := "wrote " + out + " ("; !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("stdout %q, want a line starting %q", stdout.String(), want)
	}
}
