package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json at
// the repository root lists the same names, units and directions; the
// package test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
}

// endToEnd is what a user of the system sees. Every workload emits all
// of them from its untraced run; README.md says what the unit of work
// and the operation are on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is measured by the traced run, from outside each layer. A
// workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "routing.tables_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.network_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.apsp_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.kway_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.ns_per_packet_hop", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "routing.calls", Unit: "count", Better: "lower"},
	{Name: "routing.self_s", Unit: "s", Better: "lower"},
	{Name: "routing.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "traffic.calls", Unit: "count", Better: "lower"},
	{Name: "traffic.self_s", Unit: "s", Better: "lower"},

	{Name: "sim.cycles_per_s.load_lo", Unit: "1/s", Better: "higher"},
	{Name: "sim.cycles_per_s.load_mid", Unit: "1/s", Better: "higher"},
	{Name: "sim.cycles_per_s.load_hi", Unit: "1/s", Better: "higher"},
	{Name: "sim.cycles_per_s.MIN", Unit: "1/s", Better: "higher"},
	{Name: "sim.cycles_per_s.INR", Unit: "1/s", Better: "higher"},
	{Name: "sim.cycles_per_s.A", Unit: "1/s", Better: "higher"},
	{Name: "sim.cycles_per_s.ATh", Unit: "1/s", Better: "higher"},
	{Name: "sim.cycles_per_s.exchange", Unit: "1/s", Better: "higher"},

	{Name: "harness.concurrency", Unit: "ratio", Better: "higher"},
	{Name: "harness.sched_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "fluid.sim_gap", Unit: "ratio", Better: "lower"},

	{Name: "sim.sharded.speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.sharded.protocol_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.sharded.build_ms", Unit: "ms", Better: "lower"},

	{Name: "harness.screen_points_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "store.open_s", Unit: "s", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "fluid.linkloads_ms", Unit: "ms", Better: "lower"},
	{Name: "fluid.estimate_us", Unit: "us", Better: "lower"},
	{Name: "serve.start_s", Unit: "s", Better: "lower"},
	{Name: "serve.resolve_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.resolve_cold_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.answer_bytes", Unit: "B", Better: "lower"},
}

// metricValue is one measured metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single run prints as the last line of
// its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills in the declared metrics from values, 0 for a metric
// the run did not measure, and refuses a value that was not declared.
func newResult(defs []metricDef, values map[string]float64) result {
	r := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			panic("bench: undeclared metric " + name)
		}
	}
	return r
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(seconds float64) float64 { return seconds * 1e3 }

// rounds keeps, for every timed round of a run, its rate of work and
// the median latency of its operations. A run reports the median round.
type rounds struct {
	Rate, P50 []float64
}

func (r *rounds) add(work, seconds float64, latenciesMS []float64) {
	r.Rate = append(r.Rate, work/seconds)
	r.P50 = append(r.P50, median(latenciesMS))
}

// log writes the per-round values to standard error: the raw material
// for telling a disturbed run from a slow program.
func (r rounds) log() {
	b, _ := json.Marshal(r) // two float slices cannot fail to encode
	logf("rounds %s", b)
}
