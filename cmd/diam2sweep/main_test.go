package main

import (
	"slices"
	"strings"
	"testing"

	"diam2/internal/campaign"
)

// sweepArgs drives run in-process and returns its exit status, stdout
// and stderr.
func sweepArgs(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRefusedInvocationsExit2: a command line no sweep can honour exits
// 2 with the usage or one line on stderr, and prints nothing on stdout.
func TestRefusedInvocationsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "Usage of diam2sweep:\n"},
		{[]string{"-fig", "14", "-screen"}, "diam2sweep: -screen replaces -fig"},
		{[]string{"-screen", "-screen-grid", "-3"}, "diam2sweep: -screen-grid -3:"},
		{[]string{"-fig", "14", "-j", "-1"}, "diam2sweep: -j -1:"},
		{[]string{"-fig", "14", "-campaign"}, "diam2sweep: -campaign requires -store"},
		{[]string{"-fig", "14", "-campaign", "-store", t.TempDir(), "-telemetry"}, "diam2sweep: -campaign is incompatible with telemetry collection"},
		{[]string{"-fig", "13", "-cores", "2", "-telemetry"}, "diam2sweep: -cores 2 with telemetry collection"},
		{[]string{"-fig", "14", "-cores", "2", "-http", "127.0.0.1:0"}, "diam2sweep: -cores 2 with telemetry collection"},
		{[]string{"-fig", "14", "extra"}, "diam2sweep: unexpected argument \"extra\": diam2sweep takes flags only\n"},
	} {
		code, out, errOut := sweepArgs(c.args...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and stderr starting %q",
				strings.Join(c.args, " "), code, out, errOut, c.want)
		}
	}
}

// TestCampaignWorkerManifest: a campaign worker renders the same tables
// as a plain sweep and records its own command line, as run received
// it, in the campaign manifest.
func TestCampaignWorkerManifest(t *testing.T) {
	code, plain, errOut := sweepArgs("-fig", "14", "-j", "1")
	if code != 0 || !strings.Contains(plain, "Fig. 14") {
		t.Fatalf("-fig 14: exit %d\n%s%s", code, plain, errOut)
	}
	dir := t.TempDir()
	args := []string{"-fig", "14", "-j", "1", "-campaign", "-store", dir, "-worker-id", "w1"}
	code, out, errOut := sweepArgs(args...)
	if code != 0 || out != plain {
		t.Fatalf("campaign worker: exit %d, stdout differs from the plain sweep:\n%s%s", code, out, errOut)
	}
	m, err := campaign.ReadManifest(campaign.DirFor(dir))
	if err != nil || m == nil || m.Name != "fig 14 @ quick" || !slices.Equal(m.Args, args) || !strings.HasPrefix(m.CreatedBy, "diam2sweep ") {
		t.Fatalf("manifest = %+v, %v; want fig 14 @ quick with args %v", m, err, args)
	}
}
