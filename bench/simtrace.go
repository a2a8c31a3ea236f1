package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"diam2/internal/harness"
	"diam2/internal/partition"
	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// This file assembles simulated points by hand from the exported
// constructors of topo, routing, traffic and sim — the same calls
// harness.RunSynthetic and harness.RunExchange make internally — so the
// benchmark can time each layer from outside and put counting
// decorators between the engine and its routing algorithm and workload.

// setupReps is how many times a simulator run repeats its set-up, which
// takes milliseconds; setup_s is the median.
const setupReps = 15

// sampleEvery is the decorators' timing stride: every call is counted,
// one in sampleEvery is timed and scaled up.
const sampleEvery = 64

// clockCost is what an empty timed sample reads: the clock's own
// latency. The calls the decorators time take tens of nanoseconds,
// about as long as that, so selfSeconds takes it back out. It is the
// least of many batch means, so a disturbed batch cannot inflate it and
// make selfSeconds take out more than the samples hold.
var clockCost = func() time.Duration {
	least := time.Hour
	for batch := 0; batch < 64; batch++ {
		const n = 256
		var total time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			total += time.Since(start)
		}
		least = min(least, total/n)
	}
	return least
}()

// selfSeconds scales the sampled time of calls calls up to all of them.
func selfSeconds(sampled time.Duration, calls int64) float64 {
	sampled -= time.Duration(calls/sampleEvery) * clockCost
	return max(sampled.Seconds(), 0) * sampleEvery
}

// tracedRouting counts and samples the engine's calls into a routing
// algorithm.
type tracedRouting struct {
	sim.RoutingAlgorithm
	calls   int64
	sampled time.Duration
}

func (r *tracedRouting) Inject(p *sim.Packet, rt *sim.Router, rng *rand.Rand) int {
	r.calls++
	if r.calls%sampleEvery != 0 {
		return r.RoutingAlgorithm.Inject(p, rt, rng)
	}
	start := time.Now()
	vc := r.RoutingAlgorithm.Inject(p, rt, rng)
	r.sampled += time.Since(start)
	return vc
}

func (r *tracedRouting) NextHop(p *sim.Packet, rt *sim.Router, rng *rand.Rand) (int, int) {
	r.calls++
	if r.calls%sampleEvery != 0 {
		return r.RoutingAlgorithm.NextHop(p, rt, rng)
	}
	start := time.Now()
	port, vc := r.RoutingAlgorithm.NextHop(p, rt, rng)
	r.sampled += time.Since(start)
	return port, vc
}

// tracedWorkload does the same for the engine's injection polling.
type tracedWorkload struct {
	sim.Workload
	calls   int64
	sampled time.Duration
}

func (w *tracedWorkload) NextPacket(src int, now int64, rng *rand.Rand) (int, bool) {
	w.calls++
	if w.calls%sampleEvery != 0 {
		return w.Workload.NextPacket(src, now, rng)
	}
	start := time.Now()
	dst, ok := w.Workload.NextPacket(src, now, rng)
	w.sampled += time.Since(start)
	return dst, ok
}

// newAlg mirrors the harness's algorithm construction: the adaptive
// kinds take the indirect VC requirement and ATh the 10% threshold.
func newAlg(tp topo.Topology, kind harness.AlgKind, ugal harness.UGALConfig, sc harness.Scale) (sim.RoutingAlgorithm, sim.Config, error) {
	switch kind {
	case harness.AlgMIN:
		a := routing.NewMinimal(tp)
		return a, sc.SimConfig(a.NumVCs()), nil
	case harness.AlgINR:
		a := routing.NewValiant(tp)
		return a, sc.SimConfig(a.NumVCs()), nil
	}
	ugal.Threshold = 0
	if kind == harness.AlgATh {
		ugal.Threshold = 0.10
	}
	cfg := sc.SimConfig(routing.NewValiant(tp).NumVCs())
	a, err := routing.NewUGAL(tp, ugal, cfg)
	return a, cfg, err
}

func newWorkload(pt simPoint, tp topo.Topology, cfg sim.Config, sc harness.Scale) (sim.Workload, error) {
	switch pt.what {
	case exchangeA2A:
		return traffic.AllToAll(tp.Nodes(), sc.A2APackets, rand.New(rand.NewSource(sc.PatternSeed))), nil
	case exchangeNN:
		tor, err := traffic.TorusFor(tp)
		if err != nil {
			return nil, err
		}
		return traffic.NearestNeighbor(tor, tp.Nodes(), sc.NNPackets)
	}
	var pattern traffic.Pattern = traffic.Uniform{N: tp.Nodes()}
	if pt.pat == harness.PatWC {
		wc, err := traffic.WorstCase(tp, rand.New(rand.NewSource(sc.PatternSeed)))
		if err != nil {
			return nil, err
		}
		pattern = wc
	}
	return &traffic.OpenLoop{Pattern: pattern, Load: pt.load, PacketFlits: cfg.PacketFlits()}, nil
}

// engine is what a hand-assembled point runs on: the serial engine or
// the sharded one.
type engine interface {
	Run(n int64)
	RunUntilDrained(maxCycles int64) bool
	Finish()
	Results() sim.Results
}

// pointRun is what one hand-assembled run of a point measured.
type pointRun struct {
	res      sim.Results
	runS     float64 // host seconds inside Run / RunUntilDrained
	buildMS  float64 // host milliseconds building the engine on the network
	mallocs  uint64  // heap allocations during the run
	routing  *tracedRouting
	workload *tracedWorkload
}

// runPoint builds the point from the layers' constructors and runs it.
// workers == 0 uses the serial engine; otherwise the sharded engine
// with the scale's partition count and that many workers. decorate puts
// the counting decorators in (serial engine only: they would hide the
// workload's ParallelSafe marker). Layer spans go to tr under parent.
func (w *simWorkload) runPoint(pt simPoint, tp topo.Topology, workers int, decorate bool, tr *tracer, parent int) (pointRun, error) {
	sc := w.scale
	sc.Seed = pt.seed
	var out pointRun

	s := tr.start("routing.tables", pt.id, parent)
	alg, cfg, err := newAlg(tp, pt.alg, pt.ugal, sc)
	tr.end(s)
	if err != nil {
		return out, err
	}
	s = tr.start("traffic.build", pt.id, parent)
	work, err := newWorkload(pt, tp, cfg, sc)
	tr.end(s)
	if err != nil {
		return out, err
	}
	if decorate {
		out.routing = &tracedRouting{RoutingAlgorithm: alg}
		out.workload = &tracedWorkload{Workload: work}
		alg, work = out.routing, out.workload
	}

	s = tr.start("sim.network", pt.id, parent)
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		tr.end(s)
		return out, err
	}
	var e engine
	built := time.Now()
	if workers == 0 {
		se, err := sim.NewEngine(net, alg, work)
		if err != nil {
			tr.end(s)
			return out, err
		}
		se.Warmup = sc.Warmup
		e = se
	} else {
		pe, err := sim.NewParallelEngine(net, alg, work, sim.ParallelOptions{Partitions: sc.Cores, Workers: workers})
		if err != nil {
			tr.end(s)
			return out, err
		}
		defer pe.Stop()
		pe.Warmup = sc.Warmup
		e = pe
	}
	out.buildMS = ms(time.Since(built).Seconds())
	tr.end(s)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s = tr.start("sim.run", pt.id, parent)
	started := time.Now()
	drained := true
	if pt.what == openLoop {
		e.Run(sc.Cycles)
	} else {
		drained = e.RunUntilDrained(sc.MaxDrain)
	}
	out.runS = time.Since(started).Seconds()
	tr.end(s)
	runtime.ReadMemStats(&after)
	if !drained {
		return out, fmt.Errorf("point %s did not drain in %d cycles", pt.id, sc.MaxDrain)
	}
	e.Finish()
	out.res = e.Results()
	out.mallocs = after.Mallocs - before.Mallocs
	return out, nil
}

// setUp builds, and drops, everything a round needs before its first
// simulated cycle: every topology, and for every (topology, routing)
// pair of the round the routing tables, the network and the engine.
func (w *simWorkload) setUp() error {
	type pair struct {
		preset int
		alg    harness.AlgKind
	}
	tps, err := w.buildTopologies(nil)
	if err != nil {
		return err
	}
	seen := map[pair]bool{}
	for _, pt := range w.points {
		k := pair{pt.preset, pt.alg}
		if seen[k] {
			continue
		}
		seen[k] = true
		alg, cfg, err := newAlg(tps[pt.preset], pt.alg, pt.ugal, w.scale)
		if err != nil {
			return err
		}
		work, err := newWorkload(pt, tps[pt.preset], cfg, w.scale)
		if err != nil {
			return err
		}
		net, err := sim.NewNetwork(tps[pt.preset], cfg)
		if err != nil {
			return err
		}
		if w.scale.Cores > 1 {
			pe, err := sim.NewParallelEngine(net, alg, work, sim.ParallelOptions{Partitions: w.scale.Cores, Workers: w.scale.Cores})
			if err != nil {
				return err
			}
			pe.Stop()
		} else if _, err := sim.NewEngine(net, alg, work); err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorkload) buildTopologies(tr *tracer) ([]topo.Topology, error) {
	tps := make([]topo.Topology, len(w.presets))
	for i, p := range w.presets {
		s := tr.start("topo.build", p.Name, -1)
		tp, err := p.Build()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		tps[i] = tp
	}
	return tps, nil
}

// loadClass groups open-loop points by offered load.
func loadClass(load float64) string {
	switch {
	case load < 0.35:
		return "load_lo"
	case load < 0.65:
		return "load_mid"
	}
	return "load_hi"
}

// traced is the per-layer run. It assembles every point of one round by
// hand and runs it plain, then (on the serial engine) decorated, and
// requires identical results: the proof that the decorators observe and
// do not disturb. On the sharded workload it instead re-runs each point
// on the serial engine and with one worker, which gives the speed-up
// and the cost of the sharding protocol.
func (w *simWorkload) traced(o opts) (result, digests, error) {
	tr := newTracer()
	v := map[string]float64{}
	sharded := w.scale.Cores > 1
	failed := 0

	// The scheduler's share: one round through the harness, timing each
	// point. Only a workload that fans out has any.
	if workers := w.scale.Sched.Workers; workers > 1 {
		var pointS float64
		s := tr.start("harness.round", "", -1)
		started := time.Now()
		_, _, err := w.round(func(_ string, elapsed time.Duration) { pointS += elapsed.Seconds() })
		wall := time.Since(started).Seconds()
		tr.end(s)
		if err != nil {
			return result{}, nil, err
		}
		v["harness.concurrency"] = pointS / wall
		v["harness.sched_overhead_frac"] = 1 - pointS/wall/float64(workers)
	}

	tps, err := w.buildTopologies(tr)
	if err != nil {
		return result{}, nil, err
	}
	for i, tp := range tps {
		s := tr.start("graph.apsp", w.presets[i].Name, -1)
		tp.Graph().DistanceMatrix()
		tr.end(s)
		weights := make([]int, tp.Graph().N())
		for r := range weights {
			weights[r] = 1 + len(tp.RouterNodes(r))
		}
		s = tr.start("partition.kway", w.presets[i].Name, -1)
		_, err := partition.KWay(tp.Graph(), weights, 2, partition.Config{Seed: 1})
		tr.end(s)
		if err != nil {
			return result{}, nil, err
		}
	}

	var (
		d                             = digests{}
		cycles, mallocs               int64
		packetHops                    float64
		plainS, decoratedS            float64
		serialS, oneWorkerS, buildMS  float64
		routingCalls, trafficCalls    int64
		routingSampled, trafficSample time.Duration
		groupCycles                   = map[string]float64{}
		groupS                        = map[string]float64{}
		gap                           float64
	)
	scr, err := harness.NewScreener(w.presets, w.scale)
	if err != nil {
		return result{}, nil, err
	}
	workers := 0
	if sharded {
		workers = w.scale.Cores
	}
	for _, pt := range w.points {
		tp := tps[pt.preset]
		root := tr.start("point", pt.id, -1)
		plain, err := w.runPoint(pt, tp, workers, false, tr, root)
		tr.end(root)
		if err != nil {
			return result{}, nil, err
		}
		d[pt.id] = digestOf(plain.res)
		cycles += plain.res.Cycles
		mallocs += int64(plain.mallocs)
		packetHops += float64(plain.res.Delivered) * plain.res.AvgHops
		plainS += plain.runS
		buildMS += plain.buildMS

		group := "exchange"
		if pt.what == openLoop {
			group = pt.alg.String()
			groupCycles[loadClass(pt.load)] += float64(plain.res.Cycles)
			groupS[loadClass(pt.load)] += plain.runS
			if pt.alg == harness.AlgMIN && pt.pat == harness.PatWC && loadClass(pt.load) == "load_hi" {
				sp, err := scr.Point(w.presets[pt.preset].Name, pt.alg, pt.pat, pt.load)
				if err != nil {
					return result{}, nil, err
				}
				gap = math.Max(gap, math.Abs(sp.Saturation-plain.res.Throughput)/plain.res.Throughput)
			}
		}
		groupCycles[group] += float64(plain.res.Cycles)
		groupS[group] += plain.runS

		var same bool
		if sharded {
			serial, err := w.runPoint(pt, tp, 0, false, nil, -1)
			if err != nil {
				return result{}, nil, err
			}
			one, err := w.runPoint(pt, tp, 1, false, nil, -1)
			if err != nil {
				return result{}, nil, err
			}
			serialS += serial.runS
			oneWorkerS += one.runS
			// Results depend on the partition, never on the worker count.
			same = reflect.DeepEqual(one.res, plain.res)
		} else {
			s := tr.start("point.decorated", pt.id, -1)
			dec, err := w.runPoint(pt, tp, 0, true, nil, -1)
			tr.end(s)
			if err != nil {
				return result{}, nil, err
			}
			decoratedS += dec.runS
			routingCalls += dec.routing.calls
			routingSampled += dec.routing.sampled
			trafficCalls += dec.workload.calls
			trafficSample += dec.workload.sampled
			same = reflect.DeepEqual(dec.res, plain.res)
		}
		if !same {
			logf("point %s: the second run's results differ from the first's", pt.id)
			failed++
		}
	}
	if diff := o.golden(w.name + ".points").differ(d); diff != "" {
		logf("seed %d hand-assembled points differ from testdata/digests.json: %s", o.seed, diff)
		failed = len(w.points)
	}

	v["topo.build_ms"] = ms(tr.total("topo.build"))
	v["routing.tables_ms"] = ms(tr.total("routing.tables"))
	v["sim.network_ms"] = ms(tr.total("sim.network"))
	v["graph.apsp_ms"] = ms(tr.total("graph.apsp"))
	v["partition.kway_ms"] = ms(tr.total("partition.kway"))
	v["sim.run_s"] = plainS
	v["sim.ns_per_packet_hop"] = plainS * 1e9 / packetHops
	v["sim.allocs_per_cycle"] = float64(mallocs) / float64(cycles)
	v["routing.calls"] = float64(routingCalls)
	v["routing.self_s"] = selfSeconds(routingSampled, routingCalls)
	v["traffic.calls"] = float64(trafficCalls)
	v["traffic.self_s"] = selfSeconds(trafficSample, trafficCalls)
	if routingCalls > 0 {
		v["routing.ns_per_call"] = v["routing.self_s"] * 1e9 / float64(routingCalls)
	}
	v["sim.self_s"] = plainS - v["routing.self_s"] - v["traffic.self_s"]
	for group, s := range groupS {
		v["sim.cycles_per_s."+group] = groupCycles[group] / s
	}
	v["fluid.sim_gap"] = gap
	if sharded {
		v["sim.sharded.speedup"] = serialS / plainS
		v["sim.sharded.protocol_overhead_frac"] = oneWorkerS/serialS - 1
		v["sim.sharded.build_ms"] = buildMS
	} else {
		v["bench.trace_overhead_frac"] = decoratedS/plainS - 1
	}

	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return result{}, nil, err
	}
	res := newResult(perLayer, v)
	res.Attempted = len(w.points)
	res.Failed = failed
	res.Correct = failed == 0
	return res, d, nil
}
