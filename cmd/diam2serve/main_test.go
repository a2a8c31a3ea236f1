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
	} {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != 2 || stderr.String() != c.want || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 2 and %q",
				strings.Join(c.args, " "), code, stderr.String(), stdout.String(), c.want)
		}
	}
}
