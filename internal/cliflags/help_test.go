package cliflags

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/help from the built binaries")

// The seven binaries are built once per test run, into a directory
// TestMain removes, and shared by every test that drives them.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binaries builds diam2/cmd/... on first use and returns the directory
// holding the binaries.
func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "diam2-cmds-"); buildErr != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "diam2/cmd/...").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build diam2/cmd/...: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

// TestHelpGolden builds the seven binaries and compares each one's -h
// with testdata/help/<prog>.txt: the flag names, types, defaults and
// usage sentences are the CLI's contract, and a shared group must not
// change them by accident. Regenerate with
// go test ./internal/cliflags -run TestHelpGolden -update.
func TestHelpGolden(t *testing.T) {
	bin := binaries(t)
	progs, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 7 {
		t.Fatalf("built %d binaries, want 7", len(progs))
	}
	for _, p := range progs {
		prog := p.Name()
		path := filepath.Join(bin, prog)
		out, err := exec.Command(path, "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v", prog, err)
			continue
		}
		// The usage header names the binary by the path it ran from.
		out = bytes.Replace(out, []byte(path), []byte(prog), 1)
		golden := filepath.Join("testdata", "help", prog+".txt")
		if *update {
			if err := os.WriteFile(golden, out, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("%s: %v (run with -update)", prog, err)
			continue
		}
		if !bytes.Equal(out, want) {
			t.Errorf("%s -h differs from %s:\n%s", prog, golden, out)
		}
	}
}

// TestBadInvocationsExit2: a flag combination or value a binary cannot
// honour is refused up front with one line on stderr and exit status
// 2 — never a panic (whose status is also 2), never silently replaced
// by a default.
func TestBadInvocationsExit2(t *testing.T) {
	bin := binaries(t)
	for _, c := range []struct {
		prog string
		args []string
	}{
		{"diam2sweep", []string{"-screen", "-screen-grid", "-3"}},
		{"diam2sweep", []string{"-screen", "-fig", "14"}},
		{"diam2sim", []string{"-j", "-1"}},
		{"diam2sim", []string{"-load", "1.5"}},
		{"diam2sim", []string{"-load", "-0.5"}},
		{"diam2sim", []string{"-load", "NaN"}},
		{"diam2sim", []string{"-fail-links", "-1"}},
		{"diam2sim", []string{"-mtbf", "-5"}},
		{"diam2sim", []string{"-mttr", "-5"}},
		{"diam2sim", []string{"-ni", "-3"}},
		{"diam2sim", []string{"-c", "-2"}},
		{"diam2sim", []string{"-retx-timeout", "-1"}},
		{"diam2sweep", []string{"-fig", "6", "-cores", "-2"}},
		{"diam2topo", []string{"-scaling", "bogus", "-summary"}},
		{"diam2sim", []string{"-topo", "sf-small", "-load", "0.1", "extra"}},
		{"diam2sweep", []string{"-fig", "14", "extra"}},
		{"diam2report", []string{"-fast", "extra"}},
		{"diam2serve", []string{"-http", "127.0.0.1:0", "-store", t.TempDir(), "extra"}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, c.prog), c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: %v, want exit status 2", c.prog, strings.Join(c.args, " "), err)
		}
		if strings.Contains(stderr.String(), "panic:") || strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("%s %s: want one line on stderr and nothing on stdout, got stderr:\n%sstdout:\n%s",
				c.prog, strings.Join(c.args, " "), stderr.String(), stdout.String())
		}
	}
}
