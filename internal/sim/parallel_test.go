package sim_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// This file is the sharded engine's determinism contract (DESIGN.md
// §14):
//
//  1. NewParallelEngine's one-shard, one-worker construction reproduces
//     the recorded golden digests on every scenario — NewEngine is that
//     construction, so the two are the same code;
//  2. for a fixed partition, Results are identical for any worker
//     count and across repeated runs — the contract that makes
//     sharded results storable and resumable;
//  3. conservation invariants hold after sharded runs;
//  4. what only one shard can order (global-state routing,
//     delivery-observing or unmarked workloads, a collector's event
//     hooks) is accepted there and refused from two shards up, not
//     silently raced.
//
// The whole file runs under -race in CI (go test -race ./...).

// runGoldenParallel executes a golden scenario on a parallel engine
// and checks invariants on the way out.
func runGoldenParallel(t *testing.T, sc goldenSpec, opt sim.ParallelOptions) sim.Results {
	t.Helper()
	p := sc.setup(t)
	net, err := sim.NewNetwork(p.topo, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := sim.NewParallelEngine(net, p.alg, p.work, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Stop()
	if p.faults != nil {
		if err := pe.SetFaultSchedule(p.faults); err != nil {
			t.Fatal(err)
		}
	}
	pe.Warmup = sc.warmup
	if sc.cycles > 0 {
		pe.Run(sc.cycles)
	} else if !pe.RunUntilDrained(sc.maxDrain) {
		t.Fatalf("%s: did not drain", sc.name)
	}
	if err := pe.CheckInvariants(); err != nil {
		t.Errorf("%s: invariants violated after parallel run: %v", sc.name, err)
	}
	return pe.Results()
}

// TestParallelSerialParity: the one-shard, one-worker form of
// NewParallelEngine must reproduce the digest recorded for each golden
// scenario — same rng stream, same packet IDs, same merge (a
// single-shard merge copies exactly). NewEngine is that construction,
// so this pins the general constructor's defaults (seed kept, IDs from
// 0, no cut) to the file TestGoldenStatsIdentity pins NewEngine to.
func TestParallelSerialParity(t *testing.T) {
	want := goldenDigests(t)
	for i, sc := range goldenSpecs {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.name + " " + resultsDigest(runGoldenParallel(t, sc, sim.ParallelOptions{Partitions: 1, Workers: 1}))
			if got != want[i] {
				t.Errorf("one-shard engine diverges from the recorded digest:\n got %s\nwant %s", got, want[i])
			}
		})
	}
}

// TestParallelDefaultOneShard: the zero options cut one shard whatever
// the host's CPU count, so the same call gives the same Results on
// every host.
func TestParallelDefaultOneShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := goldenSpecs[0].setup(t)
	net, err := sim.NewNetwork(p.topo, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := sim.NewParallelEngine(net, p.alg, p.work, sim.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Stop()
	if got := pe.Partitions(); got != 1 {
		t.Errorf("zero ParallelOptions cut %d shards at GOMAXPROCS 4, want 1", got)
	}
}

// TestParallelWorkerInvariance: for a fixed partition count, Results
// must not depend on how many goroutines advance the shards, nor on
// the run (repeat stability). This is the load-bearing determinism
// property: worker scheduling is nondeterministic, so any
// order-dependence in the mailbox or barrier path shows up here —
// especially under -race, where scheduling is heavily perturbed.
func TestParallelWorkerInvariance(t *testing.T) {
	for _, sc := range goldenSpecs {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, p := range []int{2, 3} {
				ref := ""
				for _, w := range []int{1, p} {
					d := resultsDigest(runGoldenParallel(t, sc, sim.ParallelOptions{Partitions: p, Workers: w}))
					if ref == "" {
						ref = d
					} else if d != ref {
						t.Errorf("P=%d: digest changed with worker count %d:\n got %s\nwant %s", p, w, d, ref)
					}
				}
				// Repeat stability at the max worker count.
				if d := resultsDigest(runGoldenParallel(t, sc, sim.ParallelOptions{Partitions: p, Workers: p})); d != ref {
					t.Errorf("P=%d: digest changed across repeated runs:\n got %s\nwant %s", p, d, ref)
				}
			}
		})
	}
}

// TestParallelRejectsUnsafe: the sharding gates, by shard count. What
// one shard runs in its caller's order is accepted there and refused
// at construction — not raced — from two shards up, whatever the worker
// count.
func TestParallelRejectsUnsafe(t *testing.T) {
	tp := mustMLFM(t, 3)
	ug, err := routing.NewUGALGlobal(tp, routing.UGALConfig{NI: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		alg     sim.RoutingAlgorithm
		work    sim.Workload
		refusal string
	}{
		{"unmarked workload", routing.NewMinimal(tp), unmarkedWorkload{n: tp.Nodes()}, "not marked parallel-safe"},
		{"UGAL-Global", ug, openUniform(tp, 0.1), "reads remote router state"},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			net, err := sim.NewNetwork(tp, sim.TestConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.NewParallelEngine(net, c.alg, c.work, sim.ParallelOptions{Partitions: shards, Workers: 1})
			switch {
			case shards == 1 && err != nil:
				t.Errorf("%s refused at one shard: %v", c.name, err)
			case shards == 1:
				if err := e.RunChecked(300, 100); err != nil {
					t.Errorf("%s at one shard: %v", c.name, err)
				}
			case err == nil:
				e.Stop()
				t.Errorf("%s accepted at two shards", c.name)
			case !strings.Contains(err.Error(), c.refusal):
				t.Errorf("%s refused at two shards with %q, want a message naming %q", c.name, err, c.refusal)
			}
		}
	}

	// A collector's per-event hooks are wired at one shard and left
	// off at two, where it records the observed window alone.
	for _, shards := range []int{1, 2} {
		e := benchParallel(t, tp, sim.TestConfig, 0.2, shards, shards)
		c := telemetry.NewCollector(telemetry.Options{})
		e.AttachTelemetry(c)
		e.Run(300)
		e.Finish()
		e.Stop()
		snap := c.Snapshot()
		if hooked := snap.Injected > 0; hooked != (shards == 1) {
			t.Errorf("%d shards: collector saw %d injections", shards, snap.Injected)
		}
		if snap.Cycles != 300 || !snap.Finished {
			t.Errorf("%d shards: collector observed %d cycles (finished %v), want 300", shards, snap.Cycles, snap.Finished)
		}
	}
}

// TestEnterParallelNeedsTwoWorkers: a closed-loop workload needs no
// preparation call before a second worker drives it — its one
// remaining-packet counter is atomic at every worker count. The
// exchange drains at P/W = 1/1, 2/1 and 2/2, and two shards give the
// same Results on one worker as on two.
func TestEnterParallelNeedsTwoWorkers(t *testing.T) {
	tp := mustMLFM(t, 3)
	byShards := map[int]sim.Results{}
	for _, c := range []struct{ shards, workers int }{{1, 1}, {2, 1}, {2, 2}} {
		ex := traffic.AllToAll(tp.Nodes(), 1, rand.New(rand.NewSource(3)))
		net, err := sim.NewNetwork(tp, sim.TestConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewParallelEngine(net, routing.NewMinimal(tp), ex, sim.ParallelOptions{Partitions: c.shards, Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		if !e.RunUntilDrained(1_000_000) {
			t.Errorf("P=%d W=%d: exchange did not drain", c.shards, c.workers)
		}
		e.Stop()
		res := e.Results()
		if res.Delivered != ex.TotalPackets() {
			t.Errorf("P=%d W=%d: delivered %d of %d packets", c.shards, c.workers, res.Delivered, ex.TotalPackets())
		}
		if prev, ok := byShards[c.shards]; ok && prev != res {
			t.Errorf("P=%d: W=%d Results differ from W=1:\n%+v\n%+v", c.shards, c.workers, res, prev)
		}
		byShards[c.shards] = res
	}
}

// TestEngineStartsNoGoroutine: the one-worker engine runs on its
// caller's goroutine — nothing to start, nothing for Stop to release.
// (Workers that earlier tests stopped may still be exiting, so the
// count may fall meanwhile; it must not rise.)
func TestEngineStartsNoGoroutine(t *testing.T) {
	tp := mustMLFM(t, 3)
	before := runtime.NumGoroutine()
	e := benchEngine(t, tp, 0.3)
	e.Run(200)
	running := runtime.NumGoroutine()
	e.Stop()
	if after := runtime.NumGoroutine(); running > before || after > before {
		t.Errorf("goroutines: %d before NewEngine, %d after Run, %d after Stop", before, running, after)
	}
}

type unmarkedWorkload struct{ n int }

func (u unmarkedWorkload) Name() string { return "unmarked" }
func (u unmarkedWorkload) NextPacket(src int, now int64, rng *rand.Rand) (int, bool) {
	return (src + 1) % u.n, true
}
func (u unmarkedWorkload) Done() bool { return false }

// TestParallelConservation: a drained closed-loop exchange through a
// multi-shard engine conserves packets globally (per-shard counters
// may go transiently negative; the sums must balance exactly).
func TestParallelConservation(t *testing.T) {
	tp := mustMLFM(t, 3)
	ex := traffic.AllToAll(tp.Nodes(), 2, rand.New(rand.NewSource(3)))
	cfg := sim.TestConfig(2)
	net, err := sim.NewNetwork(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := sim.NewParallelEngine(net, routing.NewValiant(tp), ex, sim.ParallelOptions{Partitions: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Stop()
	if !pe.RunUntilDrained(4_000_000) {
		t.Fatalf("parallel a2a did not drain: %+v", pe.Results())
	}
	res := pe.Results()
	want := ex.TotalPackets()
	if res.Generated != want || res.Injected != want || res.Delivered != want {
		t.Errorf("conservation violated: gen=%d inj=%d del=%d want=%d",
			res.Generated, res.Injected, res.Delivered, want)
	}
	if err := pe.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// runChunked advances e in launches of chunk(k) cycles, k = 0, 1, …:
// an open loop (cycles > 0) by Run until cycle `cycles`, a closed loop
// by RunUntilDrained until it drains. check runs between launches.
func runChunked(t *testing.T, e *sim.Engine, cycles int64, chunk func(k int) int64, check bool) {
	t.Helper()
	const maxDrain = 200_000
	for k := 0; ; k++ {
		n := chunk(k)
		switch {
		case cycles > 0:
			e.Run(min(n, cycles-e.Now()))
		case e.RunUntilDrained(min(e.Now()+n, maxDrain)):
			return
		case e.Now() >= maxDrain:
			t.Fatalf("did not drain in %d cycles", maxDrain)
		}
		if cycles > 0 && e.Now() >= cycles {
			return
		}
		if check {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants at cycle %d: %v", e.Now(), err)
			}
		}
	}
}

// TestEpochCutInvariance: for a fixed partition, Results do not depend
// on where epochs are cut. A launch of one cycle forces one-cycle
// epochs — the lockstep protocol, one barrier round per cycle — so
// chunk size 1 against one launch for the whole run is the
// differential test of LinkLatency-cycle epochs against cycle-by-cycle
// semantics, and random chunk sizes cut epochs at every offset. The
// fault burst lands at a cycle that is a multiple of no LinkLatency
// here and its table rebuild 37 cycles later, so both end an epoch
// early; the closed loop pins the drain cycle (Results.Cycles).
func TestEpochCutInvariance(t *testing.T) {
	tp := mustSF(t, 5)
	// run builds the scenario afresh and advances it in chunks drawn
	// from chunk (nil: 1..23 from a seeded rng, invariants checked
	// between launches).
	run := func(t *testing.T, linkLat, parts int, closed, faulted bool, chunk func(int) int64) sim.Results {
		alg := routing.NewValiant(tp)
		cfg := sim.TestConfig(alg.NumVCs())
		cfg.LinkLatency, cfg.SwitchLatency, cfg.RebuildLatency = linkLat, 2*linkLat, 37
		net, err := sim.NewNetwork(tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		work, cycles := openUniform(tp, 0.4), int64(4000)
		if closed {
			work, cycles = traffic.AllToAll(tp.Nodes(), 2, rand.New(rand.NewSource(7))), 0
		}
		e, err := sim.NewParallelEngine(net, alg, work, sim.ParallelOptions{Partitions: parts, Workers: parts})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		if faulted {
			fs, err := sim.RandomLinkFailures(tp, 4, 1503, 9)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetFaultSchedule(fs); err != nil {
				t.Fatal(err)
			}
		}
		e.Warmup = 500
		check := chunk == nil
		if check {
			rng := rand.New(rand.NewSource(int64(linkLat*100 + parts)))
			chunk = func(int) int64 { return 1 + rng.Int63n(23) }
		}
		runChunked(t, e, cycles, chunk, check)
		if err := e.CheckInvariants(); err != nil {
			t.Error(err)
		}
		res := e.Results()
		if faulted && res.Faults.Dropped == 0 {
			t.Error("the failure burst dropped nothing (weak test)")
		}
		return res
	}
	chunkings := []struct {
		name  string
		chunk func(int) int64
	}{
		{"1", func(int) int64 { return 1 }},
		{"all", func(int) int64 { return 1 << 40 }},
		{"random", nil},
	}
	type scenario struct {
		linkLat, parts  int
		closed, faulted bool
	}
	var cases []scenario
	for _, linkLat := range []int{1, 3, 10} {
		for _, parts := range []int{2, 3} {
			for _, closed := range []bool{false, true} {
				cases = append(cases, scenario{linkLat, parts, closed, false}, scenario{linkLat, parts, closed, true})
			}
		}
	}
	for _, sc := range cases {
		t.Run(fmt.Sprintf("L%d-P%d-closed=%v-faults=%v", sc.linkLat, sc.parts, sc.closed, sc.faulted), func(t *testing.T) {
			ref := ""
			for _, c := range chunkings {
				d := resultsDigest(run(t, sc.linkLat, sc.parts, sc.closed, sc.faulted, c.chunk))
				if ref == "" {
					ref = d
				} else if d != ref {
					t.Errorf("digest depends on where epochs are cut:\n chunks of %-6s %s\n chunks of %-6s %s", chunkings[0].name, ref, c.name, d)
				}
			}
		})
	}
}

// TestParallelPropertyDeterminism: randomized configurations (topology
// family, load, seed, partition count, link latency, chunking) must be
// repeat-stable, worker-count-independent and cut-independent. A seeded
// sweep — the fuzz target FuzzParallelDeterminism explores the same
// space open-endedly.
func TestParallelPropertyDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < 6; i++ {
		kind := uint8(rng.Intn(256))
		algKind := uint8(rng.Intn(256))
		load := rng.Float64()
		seed := rng.Int63n(1 << 20)
		parts := uint8(2 + rng.Intn(3))
		linkLat := uint8(rng.Intn(256))
		chunks := rng.Int63()
		checkParallelDeterminism(t, kind, algKind, load, seed, parts, linkLat, chunks, 1500)
	}
}

// checkParallelDeterminism builds the fuzz scenario with a link latency
// of 1 + linkLat%12 cycles and requires one digest from four runs: one
// and two workers and a repeat, each in launches of uneven lengths drawn
// from the chunks seed, and a run of one cycle per launch (one-cycle
// epochs: the lockstep protocol). Shared by the property test and
// FuzzParallelDeterminism.
func checkParallelDeterminism(t *testing.T, kind, algKind uint8, load float64, seed int64, parts, linkLat uint8, chunks, cycles int64) {
	t.Helper()
	run := func(workers int, chunk func(int) int64, check bool) string {
		tp, alg, work, cfg := fuzzScenario(t, kind, algKind, load, seed)
		cfg.LinkLatency = 1 + int(linkLat%12)
		cfg.SwitchLatency = 2 * cfg.LinkLatency
		net, err := sim.NewNetwork(tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := sim.NewParallelEngine(net, alg, work, sim.ParallelOptions{Partitions: int(parts), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer pe.Stop()
		pe.Warmup = cycles / 4
		// The full invariant sweep runs between launches: the queues'
		// inline heads and rings, the wake cycles and every counter
		// mirror are re-derived mid-run, not only at the end.
		runChunked(t, pe, cycles, chunk, check)
		if err := pe.CheckInvariants(); err != nil {
			t.Errorf("invariants at cycle %d: %v", pe.Now(), err)
		}
		return resultsDigest(pe.Results())
	}
	uneven := func() func(int) int64 {
		rng := rand.New(rand.NewSource(chunks))
		return func(int) int64 { return 1 + rng.Int63n(cycles/3) }
	}
	a := run(1, uneven(), true)
	b := run(2, uneven(), true)
	c := run(2, uneven(), true)
	d := run(2, func(int) int64 { return 1 }, false)
	if a != b || b != c || c != d {
		t.Errorf("kind=%d alg=%d load=%v seed=%d parts=%d linkLat=%d chunks=%d: digests diverge\n w1   %s\n w2   %s\n w2'  %s\n w2/1 %s",
			kind, algKind, load, seed, parts, linkLat, chunks, a, b, c, d)
	}
}

// fuzzScenario maps arbitrary fuzz bytes onto a small, valid scenario:
// a topology family, MIN or INR routing, and an open-loop uniform load
// in (0, 1]. Shared by the serial and parallel determinism fuzzers.
func fuzzScenario(t testing.TB, kind, algKind uint8, load float64, seed int64) (topo.Topology, sim.RoutingAlgorithm, sim.Workload, sim.Config) {
	t.Helper()
	var tp topo.Topology
	var err error
	switch kind % 5 {
	case 0:
		tp, err = topo.NewMLFM(3)
	case 1:
		tp, err = topo.NewSlimFly(5, topo.RoundDown)
	case 2:
		tp, err = topo.NewOFT(3)
	case 3:
		tp, err = topo.NewHyperX2D(3, 2)
	default:
		tp, err = topo.NewFatTree2(6)
	}
	if err != nil {
		t.Fatal(err)
	}
	var alg sim.RoutingAlgorithm
	if algKind%2 == 0 {
		alg = routing.NewMinimal(tp)
	} else {
		alg = routing.NewValiant(tp)
	}
	if load != load || load <= 0 || load > 1 { // NaN or out of range
		load = 0.3
	}
	cfg := sim.TestConfig(alg.NumVCs())
	if seed < 0 {
		seed = -seed
	}
	cfg.Seed = seed%100003 + 1
	return tp, alg, openUniform(tp, load), cfg
}

// FuzzParallelDeterminism fuzzes the parallel determinism contract:
// arbitrary (topology, algorithm, load, seed, partition count, link
// latency, chunking) must produce identical digests across worker
// counts, repeats and epoch cuts.
func FuzzParallelDeterminism(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.3, int64(1), uint8(2), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), 0.6, int64(42), uint8(3), uint8(9), int64(2))
	f.Add(uint8(3), uint8(0), 0.9, int64(7), uint8(4), uint8(2), int64(3))
	f.Add(uint8(4), uint8(1), 0.1, int64(99), uint8(2), uint8(11), int64(4))
	f.Fuzz(func(t *testing.T, kind, algKind uint8, load float64, seed int64, parts, linkLat uint8, chunks int64) {
		if parts%8 < 2 {
			parts = 2 + parts%8
		} else {
			parts = parts % 8
		}
		checkParallelDeterminism(t, kind, algKind, load, seed, parts, linkLat, chunks, 600)
	})
}

// FuzzEngineDeterminism fuzzes the one-shard engine's own determinism:
// the same configuration run twice must produce byte-identical Results
// digests. Guards the engine's "fixed config and seed → fixed output"
// contract (EngineSchema) against nondeterminism creeping in via map
// iteration, pointer-keyed ordering, or uninitialized state.
func FuzzEngineDeterminism(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.35, int64(1))
	f.Add(uint8(1), uint8(1), 0.5, int64(17))
	f.Add(uint8(2), uint8(0), 1.0, int64(42))
	f.Add(uint8(3), uint8(1), 0.7, int64(5))
	f.Add(uint8(4), uint8(0), 0.2, int64(12345))
	f.Fuzz(func(t *testing.T, kind, algKind uint8, load float64, seed int64) {
		run := func() string {
			tp, alg, work, cfg := fuzzScenario(t, kind, algKind, load, seed)
			net, err := sim.NewNetwork(tp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.NewEngine(net, alg, work)
			if err != nil {
				t.Fatal(err)
			}
			e.Warmup = 200
			if err := e.RunChecked(800, 100); err != nil {
				t.Errorf("invariants: %v", err)
			}
			return resultsDigest(e.Results())
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("serial engine not deterministic for kind=%d alg=%d load=%v seed=%d:\n 1st %s\n 2nd %s",
				kind, algKind, load, seed, a, b)
		}
	})
}
