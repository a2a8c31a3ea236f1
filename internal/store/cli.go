package store

import (
	"fmt"
	"io"

	"diam2/internal/buildinfo"
)

// OpenCLI opens the store in dir for the command-line tool cmd in
// the given mode: scan warnings go to w prefixed with the command
// name, and a newly-created store records the creating binary in its
// manifest.
func OpenCLI(dir, cmd string, mode Mode, w io.Writer) (*Store, error) {
	return Open(dir, Options{
		Logf:      func(format string, args ...any) { fmt.Fprintf(w, cmd+": "+format+"\n", args...) },
		CreatedBy: cmd + " " + buildinfo.Version(),
		Mode:      mode,
	})
}

// Summary renders the one-line end-of-run report the CLIs print to
// stderr.
func (s *Store) Summary() string {
	st := s.Stats()
	line := fmt.Sprintf("store: %d reused, %d computed, %s live in %s",
		st.Hits, st.Puts, FormatCount(st.Records, "record"), FormatCount(st.Segments, "segment"))
	if st.Corrupt > 0 {
		line += fmt.Sprintf(" (%s skipped at open)", FormatCount(st.Corrupt, "corrupt record"))
	}
	return line
}
