// Package buildinfo exposes the binary's build identity — module
// version, VCS revision, Go toolchain — for the CLIs' -version flags
// and for the provenance fields of experiment-store records.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Version returns a single-token build identity: the module version
// when the binary was built from a tagged module, otherwise the VCS
// revision (short, with a +dirty marker for local modifications), or
// "devel" when neither is recorded (e.g. go run from a work tree
// without VCS stamping). The build info cannot change while the
// process runs, so it is read once.
var Version = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	v := bi.Main.Version
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	// A stamped module version (including go1.24+ pseudo-versions,
	// which already embed the revision and a +dirty marker) wins; the
	// bare revision is the fallback for untagged work-tree builds.
	switch {
	case v != "" && v != "(devel)":
		return v
	case rev != "":
		return rev + dirty
	default:
		return "devel"
	}
})

// Banner returns the one-line -version output for a command:
//
//	diam2sweep devel (go1.24.1 linux/amd64)
func Banner(cmd string) string {
	return fmt.Sprintf("%s %s (%s %s/%s)", cmd, Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
