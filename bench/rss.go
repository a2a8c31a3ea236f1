package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc;
// pid 0 is this process. Where /proc has none it reports 0 and says so.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		logf("peak_rss_mb unavailable: %v", err)
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	logf("peak_rss_mb unavailable: no VmHWM in %s", path)
	return 0
}
