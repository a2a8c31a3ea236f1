package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"diam2/internal/partition"
	"diam2/internal/telemetry"
)

// This file implements the parallel execution mode: the router set is
// partitioned into shards (internal/partition provides the cut), each
// shard is a full Engine restricted to its own routers and nodes, and
// worker goroutines advance the shards in lockstep, one cycle per
// barrier round (conservative synchronization).
//
// Why one cycle of lookahead is safe: Config.Validate enforces
// LinkLatency >= 1, so anything one shard sends another this cycle
// cannot affect the receiver until the next cycle — a packet crossing
// a cut link arrives with ready = now+LinkLatency >= now+1 (the
// windowed switch-allocation scan stops at not-yet-ready entries
// without state change, and per-(port,vc) ready times are monotone in
// queue order, so a deferred enqueue is invisible this cycle; it
// lowers the port's wake cycle when it lands, before the next cycle's
// scan consults it), and a returning credit is scheduled
// xfer+LinkLatency >= 2 cycles out.
// Cross-shard effects therefore travel through per-shard-pair
// mailboxes applied between cycles, and each shard's intra-cycle
// execution is exactly the serial engine's.
//
// Determinism contract (tested by parallel_test.go, see DESIGN.md §14):
// for a fixed router partition, Results are identical for any worker
// count and across repeated runs — shard-local state (rng, packet IDs,
// event rings) depends only on the partition, and mailboxes are
// drained in fixed source-shard order. A one-shard parallel engine is
// bit-identical to the serial engine. Parallel runs with P > 1 shards
// are NOT bit-identical to serial runs: each shard draws from its own
// rng stream, whereas the serial engine interleaves one stream across
// all nodes. Chasing bit-parity would force a global rng and serialize
// the injection stage; instead the parallel mode carries its own
// golden contract.

// ParallelSafeWorkload marks workloads whose NextPacket and Done
// methods are safe to call concurrently from shard goroutines
// (per-source state may be unsynchronized because each source node
// belongs to exactly one shard; aggregate state must be atomic).
// NewParallelEngine refuses workloads without the marker.
type ParallelSafeWorkload interface {
	ParallelSafe()
}

// RemoteStateRouting marks routing algorithms that read state of
// routers other than the one passed to Inject/NextHop (e.g. the
// UGAL-Global ablation walking remote occupancy counters). Such reads
// race with the owning shard, so NewParallelEngine refuses them.
type RemoteStateRouting interface {
	ReadsRemoteState()
}

// pktMsg is a packet handoff crossing a shard boundary. Slab handles
// never cross shards, so the packet travels by value: the producer
// released its slot in linkStage, and the consumer re-homes the copy
// into its own slab in applyMail before enqueueing at (router, port,
// vc) with the given ready time.
type pktMsg struct {
	router int
	port   int
	vc     int
	ready  int64
	pkt    Packet
}

// credMsg is a credit return crossing a shard boundary: the consumer
// schedules the packed ref (see engine.go) on its own credit ring at
// its current cycle plus delay, which is the same absolute cycle the
// producer meant.
type credMsg struct {
	delay int64
	ref   uint32
}

// ParallelPreparable is an optional workload interface: workloads that
// keep a serial fast path (plain counters, no synchronization) and a
// sharded slow path (atomics) implement it to be told when the sharded
// engine takes over. NewParallelEngine calls EnterParallel exactly
// once, before any worker goroutine starts, so the switch
// happens-before every concurrent NextPacket/Done call.
type ParallelPreparable interface {
	EnterParallel()
}

// ParallelOptions configures NewParallelEngine.
type ParallelOptions struct {
	// Partitions is the number of shards the router set is cut into
	// (the determinism-relevant knob). Default: GOMAXPROCS, clamped to
	// the router count.
	Partitions int
	// Workers is the number of goroutines advancing shards (a pure
	// throughput knob — Results do not depend on it). Default:
	// min(Partitions, GOMAXPROCS).
	Workers int
	// RouterPartition optionally supplies an explicit cut:
	// RouterPartition[r] is router r's shard in [0, Partitions). When
	// nil the cut is derived with partition.KWay from a fixed seed, so
	// a given (topology, Partitions) pair always yields the same cut.
	RouterPartition []int
}

// ParallelEngine advances a sharded simulation with worker goroutines
// in lockstep. Construct with NewParallelEngine, drive with Run /
// RunUntilDrained, read Results, and release the workers with Stop.
// Not safe for concurrent use; WorkerCycleCounts alone may be called
// from other goroutines (telemetry).
type ParallelEngine struct {
	Net  *Network
	Alg  RoutingAlgorithm
	Work Workload
	Cfg  Config

	Warmup int64 // cycle at which measurement starts (propagated to shards)

	shards []*Engine
	part   []int   // router -> shard
	owned  [][]int // worker -> shard indices

	bar  barrier
	quit bool

	// Command state for the current Run/RunUntilDrained, written by the
	// coordinator before the start barrier and by barrier actions.
	until        int64 // Run: stop when now reaches this cycle
	checkDrained bool  // RunUntilDrained mode
	maxCycles    int64
	stopFlag     bool
	drainedFlag  bool
	doneLatch    bool // Work.Done() latched after event processing

	// workerCycles[w] counts cycles worker w completed; atomic so a
	// telemetry reader can sample mid-run.
	workerCycles []atomic.Int64

	// tel, when non-nil, receives the per-worker cycle counters at
	// Finish — the parallel engine's only telemetry channel (the
	// per-event hooks are serial-engine-only; see AttachTelemetry).
	tel *telemetry.Collector

	stopped bool
}

// shardSeed derives shard s's rng seed. A one-shard engine keeps the
// configured seed unchanged (bit-parity with serial); otherwise seeds
// are decorrelated with a splitmix64 finalizer, depending only on
// (seed, shard) so results are machine- and worker-count-independent.
func shardSeed(seed int64, shard, shards int) int64 {
	if shards == 1 {
		return seed
	}
	z := uint64(seed) + (uint64(shard)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// NewParallelEngine partitions the network and builds one shard engine
// per partition plus the worker pool (which idles until Run). The
// workload must be marked ParallelSafeWorkload and must not observe
// deliveries; the routing algorithm must not read remote router state;
// telemetry collectors cannot be attached (the per-event hooks are not
// synchronized) — use the serial engine for those.
func NewParallelEngine(net *Network, alg RoutingAlgorithm, work Workload, opt ParallelOptions) (*ParallelEngine, error) {
	if _, ok := work.(ParallelSafeWorkload); !ok {
		return nil, fmt.Errorf("sim: workload %s is not marked parallel-safe", work.Name())
	}
	if _, ok := work.(DeliveryObserver); ok {
		return nil, fmt.Errorf("sim: workload %s observes deliveries, which the parallel engine cannot order", work.Name())
	}
	if _, ok := alg.(RemoteStateRouting); ok {
		return nil, fmt.Errorf("sim: algorithm %s reads remote router state, unsafe under sharding", alg.Name())
	}
	if pp, ok := work.(ParallelPreparable); ok {
		pp.EnterParallel()
	}
	nr := len(net.Routers)
	p := opt.Partitions
	part := opt.RouterPartition
	if p <= 0 {
		if part != nil {
			for _, s := range part {
				if s+1 > p {
					p = s + 1
				}
			}
		} else {
			p = runtime.GOMAXPROCS(0)
		}
	}
	if p > nr {
		p = nr
	}
	if p < 1 {
		p = 1
	}
	if part == nil {
		if p == 1 {
			part = make([]int, nr)
		} else {
			w := make([]int, nr)
			for r := range w {
				w[r] = 1 + len(net.Topo.RouterNodes(r))
			}
			var err error
			part, err = partition.KWay(net.Topo.Graph(), w, p, partition.Config{Seed: 1})
			if err != nil {
				return nil, fmt.Errorf("sim: deriving router partition: %w", err)
			}
		}
	}
	if err := net.partitionShards(part, p); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p {
		workers = p
	}

	pe := &ParallelEngine{
		Net:  net,
		Alg:  alg,
		Work: work,
		Cfg:  net.Cfg,
		part: append([]int(nil), part...),
	}
	pe.shards = make([]*Engine, p)
	for s := 0; s < p; s++ {
		e, err := NewEngine(net, alg, work)
		if err != nil {
			return nil, err
		}
		e.shard = s
		e.par = pe
		e.acts = net.acts[s]
		e.rng = rand.New(rand.NewSource(shardSeed(net.Cfg.Seed, s, p)))
		e.nextID = int64(s) << 44 // disjoint packet-ID ranges per shard
		e.outPkt = make([][]pktMsg, p)
		e.outCred = make([][]credMsg, p)
		e.nodes = nil
		pe.shards[s] = e
	}
	for id, loc := range net.nodes { // node order within a shard = ID order
		e := pe.shards[part[loc.router]]
		e.nodes = append(e.nodes, int32(id))
	}
	pe.owned = make([][]int, workers)
	for s := 0; s < p; s++ {
		w := s % workers
		pe.owned[w] = append(pe.owned[w], s)
	}
	pe.workerCycles = make([]atomic.Int64, workers)
	pe.bar.init(workers)
	for w := 1; w < workers; w++ {
		go pe.workerLoop(w)
	}
	return pe, nil
}

// Partitions returns the number of shards.
func (pe *ParallelEngine) Partitions() int { return len(pe.shards) }

// Workers returns the worker-goroutine count.
func (pe *ParallelEngine) Workers() int { return len(pe.owned) }

// RouterPartition returns a copy of the router -> shard assignment
// (pass it back via ParallelOptions.RouterPartition to reproduce a
// run exactly).
func (pe *ParallelEngine) RouterPartition() []int {
	return append([]int(nil), pe.part...)
}

// Now returns the current cycle.
func (pe *ParallelEngine) Now() int64 { return pe.shards[0].now }

// WorkerCycleCounts returns a snapshot of per-worker completed-cycle
// counters (safe to call concurrently with a run; telemetry uses it).
func (pe *ParallelEngine) WorkerCycleCounts() []int64 {
	out := make([]int64, len(pe.workerCycles))
	for i := range pe.workerCycles {
		out[i] = pe.workerCycles[i].Load()
	}
	return out
}

// SetFaultSchedule attaches a fault schedule; as in the serial engine
// it must be called before the first cycle. Fault events are applied
// serially at the cycle barrier by shard 0, so all shards share one
// fault state.
func (pe *ParallelEngine) SetFaultSchedule(fs *FaultSchedule) error {
	e0 := pe.shards[0]
	if err := e0.SetFaultSchedule(fs); err != nil {
		return err
	}
	for _, e := range pe.shards[1:] {
		// Shared pointer: only shard 0 runs faultTick (at the barrier),
		// the rest need faults != nil so their inject stage services
		// retransmission queues, plus the resolved timeout.
		e.faults = e0.faults
		e.reroute = e0.reroute
		e.Cfg.RetxTimeout = e0.Cfg.RetxTimeout
	}
	return nil
}

// Run advances the simulation by n cycles.
func (pe *ParallelEngine) Run(n int64) {
	pe.launch(pe.shards[0].now+n, false, 0)
}

// RunUntilDrained steps until the workload is done and every injected
// packet has been delivered, or maxCycles elapse; it reports whether
// the network drained (the serial contract).
func (pe *ParallelEngine) RunUntilDrained(maxCycles int64) bool {
	pe.launch(0, true, maxCycles)
	return pe.drainedFlag
}

// AttachTelemetry connects a collector to the parallel engine's only
// telemetry channel: the per-worker cycle counters, sampled live by
// WorkerCycleCounts and recorded into the collector at Finish. The
// per-event hooks (heatmap, flight recorder) stay serial-engine-only —
// they are unsynchronized by design — so with or without a collector
// the workers' hot path is untouched (nil-gated, like the serial
// engine's hooks).
func (pe *ParallelEngine) AttachTelemetry(c *telemetry.Collector) {
	pe.tel = c
	if c != nil {
		c.Start(pe.shards[0].now)
	}
}

// Finish flushes end-of-run state: the per-worker cycle counters reach
// the attached collector, if any. It completes the engine interface
// the harness drives.
func (pe *ParallelEngine) Finish() {
	if pe.tel != nil {
		pe.tel.SetWorkerCycles(pe.WorkerCycleCounts())
		pe.tel.Finish(pe.shards[0].now)
	}
}

// Stop releases the worker goroutines. The engine cannot run again
// afterwards; Results remains readable. Safe to call twice.
func (pe *ParallelEngine) Stop() {
	if pe.stopped {
		return
	}
	pe.stopped = true
	pe.quit = true
	pe.bar.await(nil) // joins the workers' start barrier; they observe quit and exit
}

// launch runs one command (Run or RunUntilDrained) with the calling
// goroutine acting as worker 0.
func (pe *ParallelEngine) launch(until int64, checkDrained bool, maxCycles int64) {
	if pe.stopped {
		panic("sim: ParallelEngine used after Stop")
	}
	pe.until = until
	pe.checkDrained = checkDrained
	pe.maxCycles = maxCycles
	pe.stopFlag = false
	pe.drainedFlag = false
	for _, e := range pe.shards {
		e.Warmup = pe.Warmup
	}
	pe.bar.await(nil) // start barrier: releases the resident workers
	pe.cycleLoop(0)
	pe.bar.await(nil) // finish barrier: all workers idle again
}

// workerLoop is the resident body of workers 1..W-1.
func (pe *ParallelEngine) workerLoop(w int) {
	for {
		pe.bar.await(nil) // start barrier
		if pe.quit {
			return
		}
		pe.cycleLoop(w)
		pe.bar.await(nil) // finish barrier
	}
}

// cycleLoop advances the worker's shards until a barrier action raises
// stopFlag. Three barriers per cycle; actions run on the last arriver
// while every other worker is parked, so they may touch global state:
//
//	barrier(preCycle)   stop/drain decision, fault events (serial Step
//	                    runs faultTick first, so does the cycle here)
//	processEvents       per shard: credits, releases, deliveries land
//	barrier(latchDone)  Work.Done() latched — deliveries above may have
//	                    completed a closed loop; no NextPacket runs
//	                    between here and the inject stage, so shards
//	                    read the exact value serial injectStage would
//	link/switch/inject  per shard: the serial stages, cut traffic into
//	                    mailboxes
//	barrier(nil)        all producers done writing mailboxes
//	applyMail + advance per shard: drain mailboxes in source order,
//	                    step the local clock
func (pe *ParallelEngine) cycleLoop(w int) {
	shards := pe.owned[w]
	for {
		pe.bar.await(pe.preCycle)
		if pe.stopFlag {
			return
		}
		for _, s := range shards {
			pe.shards[s].processEvents()
		}
		pe.bar.await(pe.latchDone)
		for _, s := range shards {
			e := pe.shards[s]
			e.linkStage()
			e.switchStage()
			e.injectStage()
		}
		pe.bar.await(nil)
		for _, s := range shards {
			pe.applyMail(s)
			pe.shards[s].advanceCycle()
		}
		pe.workerCycles[w].Add(1)
	}
}

// preCycle is the start-of-cycle barrier action: decide whether to
// stop, then apply due fault events (before any packet moves, like the
// serial Step).
func (pe *ParallelEngine) preCycle() {
	now := pe.shards[0].now
	if pe.checkDrained {
		if pe.globalDrained() {
			pe.stopFlag = true
			pe.drainedFlag = true
			return
		}
		if now >= pe.maxCycles {
			pe.stopFlag = true
			return
		}
	} else if now >= pe.until {
		pe.stopFlag = true
		return
	}
	if e0 := pe.shards[0]; e0.faults != nil {
		e0.faultTick()
	}
}

// latchDone is the post-events barrier action; see workDone.
func (pe *ParallelEngine) latchDone() {
	pe.doneLatch = pe.Work.Done()
}

// globalDrained is the sharded drained(): per-shard in-flight counts
// can be transiently negative (a packet injected on one shard,
// delivered or dropped on another), but the sums obey the serial
// conservation laws.
func (pe *ParallelEngine) globalDrained() bool {
	if !pe.Work.Done() {
		return false
	}
	var inNet, retx int64
	for _, e := range pe.shards {
		inNet += e.injected - e.delivered - e.droppedPkts
		retx += e.retxWaiting
	}
	return inNet == 0 && retx == 0 && pe.Net.srcBusyTotal() == 0
}

// applyMail drains every producer's mailbox for shard s, in fixed
// source-shard order so the destination queues — and the slab
// allocation order, hence the handle/freelist state — see a
// deterministic arrival order regardless of worker scheduling. The
// receiving shard's clock still reads the producing cycle
// (advanceCycle runs after), so credit delays land on the absolute
// cycle the producer intended.
func (pe *ParallelEngine) applyMail(s int) {
	dst := pe.shards[s]
	for src := range pe.shards {
		prod := pe.shards[src]
		pkts := prod.outPkt[s]
		for i := range pkts {
			m := &pkts[i]
			h := dst.slab.alloc()
			*dst.slab.at(h) = m.pkt
			pe.Net.Routers[m.router].enqueueIn(m.port, m.vc, entry{h: h, ready: m.ready, outPort: -1})
		}
		prod.outPkt[s] = pkts[:0]
		crs := prod.outCred[s]
		for i := range crs {
			dst.scheduleCredit(crs[i].delay, crs[i].ref)
		}
		prod.outCred[s] = crs[:0]
	}
}

// Results merges the shard summaries in fixed shard order (float-sum
// determinism) into the serial Results shape. With one shard this is
// an exact copy of the shard's own Results.
func (pe *ParallelEngine) Results() Results {
	e0 := pe.shards[0]
	res := Results{Cycles: e0.now, Warmup: pe.Warmup}
	latGen := e0.latGen.Clone()
	latNet := e0.latNet.Clone()
	hops := e0.hops
	var deliveredFlitsWindow, injectedFlitsWindow, indirectN int64
	var faults FaultStats
	for i, e := range pe.shards {
		res.Generated += e.generated
		res.Injected += e.injected
		res.Delivered += e.delivered
		deliveredFlitsWindow += e.deliveredFlitsWindow
		injectedFlitsWindow += e.injectedFlitsWindow
		indirectN += e.indirectN
		if i > 0 {
			// Shapes always match: every shard builds its histograms
			// from the same Config.
			if err := latGen.Merge(e.latGen); err != nil {
				panic(err)
			}
			if err := latNet.Merge(e.latNet); err != nil {
				panic(err)
			}
			hops.Merge(&e.hops)
		}
		fs := e.FaultStats()
		faults.LinkDownEvents += fs.LinkDownEvents
		faults.LinkUpEvents += fs.LinkUpEvents
		faults.SkippedEvents += fs.SkippedEvents
		faults.Rebuilds += fs.Rebuilds
		faults.Dropped += fs.Dropped
		faults.Retransmits += fs.Retransmits
		faults.RetxPending += fs.RetxPending
		if fs.MaxRecovery > faults.MaxRecovery {
			faults.MaxRecovery = fs.MaxRecovery
		}
	}
	window := e0.now - pe.Warmup
	nodes := int64(len(pe.Net.nodes))
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
	res.Faults = faults
	return res
}

// CheckInvariants runs the serial invariant sweep with shard counters
// summed (valid only between Run calls, when the shards are at a
// common cycle and no worker is mid-stage).
func (pe *ParallelEngine) CheckInvariants() error {
	var c engineCounts
	slabs := make([]*pktSlab, len(pe.shards))
	for s, e := range pe.shards {
		slabs[s] = &e.slab
		c.generated += e.generated
		c.injected += e.injected
		c.retransmits += e.retransmits
		c.delivered += e.delivered
		c.droppedPkts += e.droppedPkts
		c.retxWaiting += e.retxWaiting
	}
	return checkInvariants(pe.Net, pe.Now(), slabs, c)
}

// barrier is a reusable cyclic barrier for a fixed party count. The
// last arriver runs the (optional) action while every other party is
// parked on the condition variable, then releases the generation.
// await allocates nothing, keeping the per-cycle hot path zero-alloc.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	arrived int
	gen     uint64
}

func (b *barrier) init(parties int) {
	b.parties = parties
	b.cond.L = &b.mu
}

func (b *barrier) await(action func()) {
	b.mu.Lock()
	g := b.gen
	b.arrived++
	if b.arrived == b.parties {
		if action != nil {
			action()
		}
		b.arrived = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for g == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
