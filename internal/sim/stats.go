package sim

// Results summarizes a finished run.
type Results struct {
	Cycles int64
	Warmup int64

	Generated int64 // packets created at source queues
	Injected  int64 // injection events (retransmissions re-count)
	Delivered int64 // packets whose tail reached the destination node

	// Throughput is the delivered load during the measurement window,
	// in flits per node per cycle — i.e. as a fraction of the
	// aggregate injection bandwidth (1.0 = every node receiving at
	// full link rate).
	Throughput float64
	// InjectedLoad is the injected load in the same units.
	InjectedLoad float64

	AvgLatency    float64 // generation -> delivery, cycles
	P99Latency    float64
	MaxLatency    float64
	AvgNetLatency float64 // injection -> delivery, cycles (excludes source queueing)
	AvgHops       float64
	IndirectFrac  float64 // fraction of measured packets routed non-minimally

	// Faults summarizes fault-injection activity (all zero without a
	// fault schedule).
	Faults FaultStats
}

// Results computes the summary at the current cycle, merging the shard
// summaries in fixed shard order (float-sum determinism); with one
// shard the merge is an exact copy.
func (e *Engine) Results() Results {
	sh0 := e.shards[0]
	res := Results{Cycles: sh0.now, Warmup: e.Warmup}
	latGen := sh0.latGen.Clone()
	latNet, hops := sh0.latNet, sh0.hops
	var deliveredFlitsWindow, injectedFlitsWindow, indirectN int64
	for i, sh := range e.shards {
		res.Generated += sh.generated
		res.Injected += sh.injected
		res.Delivered += sh.delivered
		deliveredFlitsWindow += sh.deliveredFlitsWindow
		injectedFlitsWindow += sh.injectedFlitsWindow
		indirectN += sh.indirectN
		if i > 0 {
			// Shapes always match: every shard builds its histogram
			// from the same Config.
			if err := latGen.Merge(sh.latGen); err != nil {
				panic(err)
			}
			latNet.Merge(&sh.latNet)
			hops.Merge(&sh.hops)
		}
	}
	window := sh0.now - e.Warmup
	nodes := int64(len(e.Net.nodes))
	if window > 0 && nodes > 0 {
		res.Throughput = float64(deliveredFlitsWindow) / float64(window*nodes)
		res.InjectedLoad = float64(injectedFlitsWindow) / float64(window*nodes)
	}
	res.AvgLatency = latGen.Mean()
	res.P99Latency = latGen.Percentile(99)
	res.MaxLatency = latGen.Max()
	res.AvgNetLatency = latNet.Mean()
	res.AvgHops = hops.Mean()
	if n := latGen.N(); n > 0 {
		res.IndirectFrac = float64(indirectN) / float64(n)
	}
	res.Faults = e.FaultStats()
	return res
}

// LatencySeconds converts a latency in cycles to seconds given the
// paper's 100 Gbps links.
func (c Config) LatencySeconds(cycles float64) float64 {
	cycleSec := float64(c.FlitBytes) * 8 / 100e9
	return cycles * cycleSec
}

// CyclesForDuration returns the cycle count corresponding to a
// duration in seconds at the paper's 100 Gbps link rate.
func (c Config) CyclesForDuration(seconds float64) int64 {
	cycleSec := float64(c.FlitBytes) * 8 / 100e9
	return int64(seconds / cycleSec)
}
