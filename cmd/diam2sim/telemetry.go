package main

import (
	"fmt"
	"io"

	"diam2/internal/cliflags"
	"diam2/internal/harness"
)

// report prints the telemetry summary and writes the JSONL trace.
func report(w io.Writer, tel cliflags.Telemetry, sink *harness.TelemetrySink) error {
	if sink == nil {
		return nil
	}
	tot := sink.Totals()
	fmt.Fprintf(w, "telemetry %d run(s): injected=%d delivered=%d dropped=%d link-flits=%d\n",
		tot.Points, tot.Injected, tot.Delivered, tot.Dropped, tot.LinkFlits)
	for i, snap := range sink.Snapshots() {
		if i == 6 {
			fmt.Fprintf(w, "  ... %d more runs\n", tot.Points-i)
			break
		}
		fmt.Fprintf(w, "  %s: latency min-routed n=%d avg=%.0f p99=%.0f | indirect n=%d avg=%.0f p99=%.0f\n",
			snap.Label,
			snap.LatencyMinimal.N, snap.LatencyMinimal.Mean, snap.LatencyMinimal.P99,
			snap.LatencyIndirect.N, snap.LatencyIndirect.Mean, snap.LatencyIndirect.P99)
	}
	heat := sink.Heatmap()
	for i, l := range heat {
		if i == 8 {
			fmt.Fprintf(w, "  ... %d more links\n", len(heat)-i)
			break
		}
		if i == 0 {
			fmt.Fprintln(w, "hottest links (flits, load):")
		}
		fmt.Fprintf(w, "  %4d -> %-4d %10d  %.3f\n", l.From, l.To, l.Flits, l.Load)
	}
	return tel.Export(sink)
}
