package sim

import (
	"fmt"
	"runtime"
	"sync"

	"diam2/internal/partition"
)

// This file is the engine's driver: the router set is cut into shards
// (internal/partition provides the cut), each shard owns its routers'
// and nodes' state (engine.go), and workers advance the shards in
// epochs of up to Config.LinkLatency cycles with one barrier between
// epochs (conservative synchronization). The serial simulator is the
// one-shard, one-worker case of it: no cut, the calling goroutine is
// the only worker, every epoch is one cycle and the barrier is a direct
// call of its action.
//
// Why LinkLatency cycles of lookahead are safe. Let an epoch cover the
// cycles [T, T+E) with E <= L = LinkLatency, and let a shard act on a
// cut link in cycle t of it:
//
//   - a packet it sends arrives with ready = t+L >= T+E. The windowed
//     switch-allocation scan stops at a not-yet-ready entry without
//     state change; each input (port, vc) queue is fed by exactly one
//     upstream port, so ready times are monotone in queue order, the
//     entries missing during the epoch are a not-yet-ready suffix, and
//     mailbox FIFO order is queue order; enqueueIn lowers the port's
//     wake cycle when the entry lands, before the scan of cycle T+E
//     consults it;
//   - a credit it returns lands at t+xfer+L > T+E (xfer >= 1), and
//     credits are commutative adds applied at their landing cycle.
//
// So nothing one shard does to another inside an epoch can be observed
// before the epoch ends, and applying an epoch's mail at its end is
// invisible: within an epoch a shard runs the stage functions on its
// own state alone, all E cycles back to back. An epoch is cut short of
// L cycles where something global must happen at an exact cycle — the
// run's last cycle, a fault-schedule event, a pending table rebuild,
// and every cycle of a closed loop's drain (see boundary).
//
// Determinism contract (tested by parallel_test.go, see DESIGN.md §14):
// for a fixed router partition, Results are identical for any worker
// count, across repeated runs, and wherever epochs are cut — Run(1) n
// times, Run(n) once and any chunking in between give the same bytes.
// Shard-local state (rng, packet IDs, event rings) depends only on the
// partition, and mailboxes are drained in fixed source-shard order.
// Runs with P > 1 shards are NOT bit-identical to one-shard runs: each
// shard draws from its own rng stream, whereas one shard interleaves
// one stream across all nodes. Chasing bit-parity would force a global
// rng and serialize the injection stage; instead every shard count
// carries its own golden digests.
//
// Sharding gates: a workload must be marked ParallelSafeWorkload, and
// the routing algorithm must not read remote router state, from two
// shards up. One shard needs neither.

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
// schedules the packed ref (see engine.go) on its own credit ring for
// the absolute cycle at. Absolute, not a delay: the consumer reads the
// message at the end of the epoch, up to LinkLatency-1 cycles after the
// producing cycle.
type credMsg struct {
	at  int64
	ref uint32
}

// ParallelOptions configures NewParallelEngine.
type ParallelOptions struct {
	// Partitions is the number of shards the router set is cut into
	// (the determinism-relevant knob), clamped to the router count.
	// <= 0 means one shard: a default read from the host's CPU count
	// would make Results depend on the host.
	Partitions int
	// Workers is the number of goroutines advancing shards (a pure
	// throughput knob — Results do not depend on it). Default:
	// min(Partitions, GOMAXPROCS).
	Workers int
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
	p := max(1, min(opt.Partitions, nr))
	if p > 1 {
		if _, ok := work.(ParallelSafeWorkload); !ok {
			return nil, fmt.Errorf("sim: workload %s is not marked parallel-safe", work.Name())
		}
		if _, ok := alg.(RemoteStateRouting); ok {
			return nil, fmt.Errorf("sim: algorithm %s reads remote router state, unsafe under sharding", alg.Name())
		}
	}
	// The cut is derived with partition.KWay from a fixed seed, so a
	// given (topology, Partitions) pair always yields the same cut.
	part := make([]int, nr) // one shard: the single group NewNetwork built
	if p > 1 {
		w := make([]int, nr)
		for r := range w {
			w[r] = 1 + len(net.Topo.RouterNodes(r))
		}
		var err error
		if part, err = partition.KWay(net.Topo.Graph(), w, p, partition.Config{Seed: 1}); err != nil {
			return nil, fmt.Errorf("sim: deriving router partition: %w", err)
		}
		if err := net.partitionShards(part, p); err != nil {
			return nil, err
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p {
		workers = p
	}

	e := &Engine{
		Net:  net,
		Alg:  alg,
		Work: work,
		Cfg:  net.Cfg,
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

// cycleLoop advances the worker's shards, one epoch per barrier round,
// until the boundary action raises stopFlag. The action runs on the last
// arriver while every other worker is parked, so it may touch global
// state; it flips the mailbox parity, so after the barrier out*[par^1]
// holds the epoch just run and nobody writes it before the next round —
// one barrier separates its producers from its consumers, and the
// producers of the next epoch write the other buffer:
//
//	barrier(boundary)   stop/drain decision, fault events, next epoch's
//	                    length, mailbox parity flipped
//	applyMail           per shard: the ended epoch's cut traffic, in
//	                    source-shard order (also at the stopping
//	                    boundary, so a stopped engine holds no mail; one
//	                    shard has none)
//	epoch x cycle       per shard, back to back: events, link, switch,
//	                    inject, advance — cut traffic into out*[par]
func (e *Engine) cycleLoop(w int) {
	shards := e.owned[w]
	mail := len(e.shards) > 1
	for {
		e.bar.await(e.boundary)
		if mail {
			for _, sh := range shards {
				e.applyMail(sh, e.par^1)
			}
		}
		if e.stopFlag {
			return
		}
		for _, sh := range shards {
			for c := e.epoch; c > 0; c-- {
				sh.processEvents()
				sh.linkStage()
				sh.switchStage()
				sh.injectStage()
				sh.advanceCycle()
			}
		}
	}
}

// boundary is the barrier action between epochs, every shard at cycle
// now: decide whether to stop, apply due fault events (shard 0 applies
// them for every shard — all share one fault state), and set the next
// epoch's length to the largest count of cycles, at most LinkLatency,
// before something global must happen at an exact cycle:
//
//   - the run's last cycle (until, maxCycles);
//   - the next fault-schedule event or pending table rebuild, which act
//     on every shard's queues at once;
//   - the cycle a closed loop drains, which is an output
//     (Results.Cycles). The workload's last packet still needs more
//     than LinkLatency cycles to reach its destination, so while
//     Work.Done() reads false at a boundary the network cannot have
//     drained by the next one; once it reads true, epochs are one cycle.
//
// One shard always takes one-cycle epochs: its barrier is a direct
// call, and a delivery-observing workload (accepted there) may finish
// on any delivery.
func (e *Engine) boundary() {
	e.boundaries++
	e.par ^= 1
	now := e.Now()
	left := e.until - now
	if e.checkDrained {
		left = e.maxCycles - now
		if e.drained() {
			e.drainedFlag = true
			left = 0
		}
	}
	if left <= 0 {
		e.stopFlag = true
		return
	}
	e.epoch = 1
	if len(e.shards) > 1 && !(e.checkDrained && e.Work.Done()) {
		e.epoch = min(int64(e.Cfg.LinkLatency), left)
	}
	if f := e.shards[0].faults; f != nil {
		if f.nextCycle() <= now {
			// A failing link drops the packets still on its wire, and
			// those sent across the cut in the ended epoch are on the
			// wire in a mailbox: land all mail before the events.
			for _, sh := range e.shards {
				e.applyMail(sh, e.par^1)
			}
			e.shards[0].faultTick()
		}
		e.epoch = min(e.epoch, f.nextCycle()-now)
	}
}

// applyMail drains, for shard dst, every producer's mailbox of the
// given parity, in fixed source-shard order so the destination queues —
// and the slab allocation order, hence the handle/freelist state — see
// a deterministic arrival order regardless of worker scheduling. Every
// shard's clock reads the boundary cycle.
func (e *Engine) applyMail(dst *shard, par int) {
	for _, prod := range e.shards {
		pkts := prod.outPkt[par][dst.id]
		for i := range pkts {
			m := &pkts[i]
			h := dst.slab.alloc()
			*dst.slab.at(h) = m.pkt
			e.Net.Routers[m.router].enqueueIn(m.port, m.vc, entry{h: h, ready: m.ready, outPort: unrouted})
		}
		prod.outPkt[par][dst.id] = pkts[:0]
		crs := prod.outCred[par][dst.id]
		for i := range crs {
			dst.scheduleCredit(crs[i].at-dst.now, crs[i].ref)
		}
		prod.outCred[par][dst.id] = crs[:0]
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
