package main

import (
	"strings"
	"testing"
)

// TestRefusedInvocationsExit2: a command line no server can honour
// exits 2 before anything listens or any store is opened.
func TestRefusedInvocationsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-store", dir}, "usage: diam2serve -http ADDR -store DIR [flags]\n"},
		{[]string{"-http", "127.0.0.1:0"}, "usage: diam2serve -http ADDR -store DIR [flags]\n"},
		{[]string{"-http", "127.0.0.1:0", "-store", dir, "extra"}, "diam2serve: unexpected argument \"extra\": diam2serve takes flags only\n"},
		{[]string{"-http", "127.0.0.1:0", "-store", dir, "-escalate-band", "-1"}, "diam2serve: -escalate-band -1: the band cannot be negative (0: no escalation)\n"},
		{[]string{"-http", "127.0.0.1:0", "-store", dir, "-queue", "0"}, "diam2serve: -queue 0: the server must admit at least one query\n"},
		{[]string{"-http", "127.0.0.1:0", "-store", dir, "-esc-workers", "0"}, "diam2serve: -esc-workers 0: escalations need at least one worker\n"},
		{[]string{"-http", "127.0.0.1:0", "-store", dir, "-drain-timeout", "-1s"}, "diam2serve: -drain-timeout -1s cannot be negative\n"},
	} {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != 2 || stderr.String() != c.want || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 2 and %q",
				strings.Join(c.args, " "), code, stderr.String(), stdout.String(), c.want)
		}
	}
}
