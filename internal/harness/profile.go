package harness

import "sync/atomic"

// simulatedCycles accumulates the cycles every harness-level run
// simulates, across all scheduler workers. The engine's cycle rate is
// the wall-clock bottleneck of every figure sweep, so diam2sim,
// diam2sweep and the repository benchmark report it per second.
var simulatedCycles atomic.Int64

func countCycles(n int64) { simulatedCycles.Add(n) }

// SimulatedCycles returns the total cycles simulated by harness runs
// in this process so far. Sample it before and after a sweep and
// divide by wall time for the achieved simulation rate.
func SimulatedCycles() int64 { return simulatedCycles.Load() }
