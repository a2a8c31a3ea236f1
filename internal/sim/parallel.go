package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"diam2/internal/partition"
)

// This file is the engine's driver: the router set is cut into shards
// (internal/partition provides the cut), each shard owns its routers'
// and nodes' state (engine.go), and workers advance the shards in
// lockstep, one cycle per barrier round (conservative synchronization).
// The serial simulator is the one-shard, one-worker case of it: no cut,
// the calling goroutine is the only worker, and each barrier is a direct
// call of its action.
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
// mailboxes applied between cycles, and within a cycle a shard runs
// the stage functions on its own state alone.
//
// Determinism contract (tested by parallel_test.go, see DESIGN.md §14):
// for a fixed router partition, Results are identical for any worker
// count and across repeated runs — shard-local state (rng, packet IDs,
// event rings) depends only on the partition, and mailboxes are
// drained in fixed source-shard order. Runs with P > 1 shards are NOT
// bit-identical to one-shard runs: each shard draws from its own rng
// stream, whereas one shard interleaves one stream across all nodes.
// Chasing bit-parity would force a global rng and serialize the
// injection stage; instead every shard count carries its own golden
// digests.
//
// Sharding gates: a workload must be marked ParallelSafeWorkload and
// must not observe deliveries, and the routing algorithm must not read
// remote router state, from two shards up; ParallelPreparable workloads
// are told only when a second worker will run. One shard needs none of
// them.

// ParallelSafeWorkload marks workloads whose NextPacket and Done
// methods are safe to call concurrently from shard goroutines
// (per-source state may be unsynchronized because each source node
// belongs to exactly one shard; aggregate state must be atomic).
// NewParallelEngine refuses workloads without the marker from two
// shards up.
type ParallelSafeWorkload interface {
	ParallelSafe()
}

// RemoteStateRouting marks routing algorithms that read state of
// routers other than the one passed to Inject/NextHop (e.g. the
// UGAL-Global ablation walking remote occupancy counters). Such reads
// race with the owning shard, so NewParallelEngine refuses them from
// two shards up.
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
// keep a single-worker fast path (plain counters, no synchronization)
// and a concurrent slow path (atomics) implement it to be told when a
// second worker will run. NewParallelEngine calls EnterParallel exactly
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

// shardSeed derives shard s's rng seed. A one-shard engine keeps the
// configured seed unchanged; otherwise seeds are decorrelated with a
// splitmix64 finalizer, depending only on (seed, shard) so results are
// machine- and worker-count-independent.
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

// NewParallelEngine cuts the network into opt.Partitions shards and
// builds the engine plus its worker pool (which idles until Run; Stop
// releases it). cfg.NumVCs must cover alg.NumVCs(), and from two shards
// up the sharding gates in this file's header apply.
func NewParallelEngine(net *Network, alg RoutingAlgorithm, work Workload, opt ParallelOptions) (*Engine, error) {
	if alg.NumVCs() > net.Cfg.NumVCs {
		return nil, fmt.Errorf("sim: algorithm %s needs %d VCs, config has %d", alg.Name(), alg.NumVCs(), net.Cfg.NumVCs)
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
	if p > 1 {
		if _, ok := work.(ParallelSafeWorkload); !ok {
			return nil, fmt.Errorf("sim: workload %s is not marked parallel-safe", work.Name())
		}
		if _, ok := work.(DeliveryObserver); ok {
			return nil, fmt.Errorf("sim: workload %s observes deliveries, which the parallel engine cannot order", work.Name())
		}
		if _, ok := alg.(RemoteStateRouting); ok {
			return nil, fmt.Errorf("sim: algorithm %s reads remote router state, unsafe under sharding", alg.Name())
		}
	}
	if part == nil && p > 1 {
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
	if part == nil {
		part = make([]int, nr) // one shard: the single group NewNetwork built
	} else if err := net.partitionShards(part, p); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p {
		workers = p
	}
	if pp, ok := work.(ParallelPreparable); ok && workers > 1 {
		pp.EnterParallel()
	}

	e := &Engine{
		Net:  net,
		Alg:  alg,
		Work: work,
		Cfg:  net.Cfg,
		part: append([]int(nil), part...),
	}
	e.shards = make([]*shard, p)
	for s := range e.shards {
		e.shards[s] = newShard(e, s, p)
	}
	for id, loc := range net.nodes { // node order within a shard = ID order
		sh := e.shards[part[loc.router]]
		sh.nodes = append(sh.nodes, int32(id))
	}
	e.owned = make([][]*shard, workers)
	for s, sh := range e.shards {
		e.owned[s%workers] = append(e.owned[s%workers], sh)
	}
	e.workerCycles = make([]atomic.Int64, workers)
	e.bar.init(workers)
	for w := 1; w < workers; w++ {
		go e.workerLoop(w)
	}
	return e, nil
}

// Partitions returns the number of shards.
func (e *Engine) Partitions() int { return len(e.shards) }

// Workers returns the worker count, the calling goroutine included.
func (e *Engine) Workers() int { return len(e.owned) }

// RouterPartition returns a copy of the router -> shard assignment
// (pass it back via ParallelOptions.RouterPartition to reproduce a
// run exactly).
func (e *Engine) RouterPartition() []int {
	return append([]int(nil), e.part...)
}

// WorkerCycleCounts returns a snapshot of per-worker completed-cycle
// counters (safe to call concurrently with a run; telemetry uses it).
func (e *Engine) WorkerCycleCounts() []int64 {
	out := make([]int64, len(e.workerCycles))
	for i := range e.workerCycles {
		out[i] = e.workerCycles[i].Load()
	}
	return out
}

// Stop releases the worker goroutines (a one-worker engine has none).
// The engine cannot run again afterwards; Results remains readable.
// Safe to call twice.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.quit = true
	e.bar.await(nil) // joins the workers' start barrier; they observe quit and exit
}

// launch runs one command (Run or RunUntilDrained) with the calling
// goroutine acting as worker 0.
func (e *Engine) launch(until int64, checkDrained bool, maxCycles int64) {
	if e.stopped {
		panic("sim: Engine used after Stop")
	}
	e.until = until
	e.checkDrained = checkDrained
	e.maxCycles = maxCycles
	e.stopFlag = false
	e.drainedFlag = false
	for _, sh := range e.shards {
		sh.warmup = e.Warmup
	}
	e.bar.await(nil) // start barrier: releases the resident workers
	e.cycleLoop(0)
	e.bar.await(nil) // finish barrier: all workers idle again
}

// workerLoop is the resident body of workers 1..W-1.
func (e *Engine) workerLoop(w int) {
	for {
		e.bar.await(nil) // start barrier
		if e.quit {
			return
		}
		e.cycleLoop(w)
		e.bar.await(nil) // finish barrier
	}
}

// cycleLoop advances the worker's shards until a barrier action raises
// stopFlag. Three barriers per cycle; actions run on the last arriver
// while every other worker is parked, so they may touch global state:
//
//	barrier(preCycle)   stop/drain decision, then fault events, before
//	                    any packet moves
//	processEvents       per shard: credits, releases, deliveries land
//	barrier(latchDone)  Work.Done() latched — deliveries above may have
//	                    completed a closed loop, and no NextPacket runs
//	                    between here and the inject stage
//	link/switch/inject  per shard, cut traffic into mailboxes
//	barrier(nil)        all producers done writing mailboxes
//	applyMail + advance per shard: drain mailboxes in source order
//	                    (one shard has no mail), step the local clock
func (e *Engine) cycleLoop(w int) {
	shards := e.owned[w]
	mail := len(e.shards) > 1
	for {
		e.bar.await(e.preCycle)
		if e.stopFlag {
			return
		}
		for _, sh := range shards {
			sh.processEvents()
		}
		e.bar.await(e.latchDone)
		for _, sh := range shards {
			sh.linkStage()
			sh.switchStage()
			sh.injectStage()
		}
		e.bar.await(nil)
		for _, sh := range shards {
			if mail {
				e.applyMail(sh)
			}
			sh.advanceCycle()
		}
		e.workerCycles[w].Add(1)
	}
}

// preCycle is the start-of-cycle barrier action: decide whether to
// stop, then apply due fault events. Shard 0 applies them for every
// shard — all share one fault state (SetFaultSchedule).
func (e *Engine) preCycle() {
	if e.checkDrained {
		if e.drained() {
			e.stopFlag = true
			e.drainedFlag = true
			return
		}
		if e.Now() >= e.maxCycles {
			e.stopFlag = true
			return
		}
	} else if e.Now() >= e.until {
		e.stopFlag = true
		return
	}
	if sh := e.shards[0]; sh.faults != nil {
		sh.faultTick()
	}
}

// latchDone is the post-events barrier action; see workDone.
func (e *Engine) latchDone() {
	e.doneLatch = e.Work.Done()
}

// applyMail drains every producer's mailbox for shard dst, in fixed
// source-shard order so the destination queues — and the slab
// allocation order, hence the handle/freelist state — see a
// deterministic arrival order regardless of worker scheduling. The
// receiving shard's clock still reads the producing cycle
// (advanceCycle runs after), so credit delays land on the absolute
// cycle the producer intended.
func (e *Engine) applyMail(dst *shard) {
	for _, prod := range e.shards {
		pkts := prod.outPkt[dst.id]
		for i := range pkts {
			m := &pkts[i]
			h := dst.slab.alloc()
			*dst.slab.at(h) = m.pkt
			e.Net.Routers[m.router].enqueueIn(m.port, m.vc, entry{h: h, ready: m.ready, outPort: -1})
		}
		prod.outPkt[dst.id] = pkts[:0]
		crs := prod.outCred[dst.id]
		for i := range crs {
			dst.scheduleCredit(crs[i].delay, crs[i].ref)
		}
		prod.outCred[dst.id] = crs[:0]
	}
}

// barrier is a reusable cyclic barrier for a fixed party count. The
// last arriver runs the (optional) action while every other party is
// parked on the condition variable, then releases the generation. A
// lone party is always the last arriver, so its await is a direct call
// of the action: no lock, no broadcast. await allocates nothing,
// keeping the per-cycle hot path zero-alloc.
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
	if b.parties == 1 {
		if action != nil {
			action()
		}
		return
	}
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
