package cliflags

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/help from the built binaries")

// TestHelpGolden builds the seven binaries and compares each one's -h
// with testdata/help/<prog>.txt: the flag names, types, defaults and
// usage sentences are the CLI's contract, and a shared group must not
// change them by accident. Regenerate with
// go test ./internal/cliflags -run TestHelpGolden -update.
func TestHelpGolden(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "diam2/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build diam2/cmd/...: %v\n%s", err, out)
	}
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
