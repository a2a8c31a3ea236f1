package sim_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

var updateStats = flag.Bool("update-stats", false, "rewrite the golden stats digests under testdata/")

// TestGoldenStatsIdentity pins the engine's end-to-end statistics —
// every Results field, bit-exact — for a spread of topology, routing,
// workload and fault scenarios covering all topology families (SSPTs,
// HyperX, Fat-Tree) and both fault styles (one-shot link failures and
// an MTBF/MTTR process). The digests under testdata/ were produced by
// the pre-optimization (full-scan) engine; the active-set engine must
// reproduce them byte for byte, proving the wake-list and freelist
// machinery is behaviour-preserving, not merely plausible. The same
// scenario specs drive the sharded engine's determinism suite
// (parallel_test.go). The two *-deep scenarios run a mid-size Slim Fly
// on sim.DefaultConfig — 800/400-flit buffers, AllocWindow 64, 20/10-
// cycle latencies — so queues hundreds of packets deep, the windowed
// scan past a blocked head and queue-storage growth sit under a digest
// too; each also pins its two-shard form (the sharded engine has its
// own digests by design). Regenerate with -update-stats only for a
// change that intentionally alters simulation semantics.
func TestGoldenStatsIdentity(t *testing.T) {
	got := make([]string, 0, len(goldenSpecs))
	for _, sc := range goldenSpecs {
		got = append(got, sc.name+" "+resultsDigest(runGoldenSerial(t, sc)))
	}
	// Sharded lines follow the serial ones, so line i is goldenSpecs[i]
	// for every reader of the file.
	for _, sc := range goldenSpecs {
		if sc.sharded {
			got = append(got, sc.name+"@P2 "+resultsDigest(runGoldenParallel(t, sc, sim.ParallelOptions{Partitions: 2, Workers: 2})))
		}
	}
	path := filepath.Join("testdata", "golden_stats.txt")
	text := strings.Join(got, "\n") + "\n"
	if *updateStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	wantLines := goldenDigests(t)
	if len(wantLines) != len(got) {
		t.Fatalf("golden stats hold %d scenarios, test runs %d", len(wantLines), len(got))
	}
	for i, g := range got {
		if g != wantLines[i] {
			t.Errorf("stats diverge from the seed engine:\n got %s\nwant %s", g, wantLines[i])
		}
	}
}

// goldenDigests reads the recorded digests: line i is goldenSpecs[i]
// on one shard, the sharded lines follow.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden_stats.txt"))
	if err != nil {
		t.Fatalf("missing golden stats (run with -update-stats to create): %v", err)
	}
	return strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
}

// resultsDigest renders a Results bit-exactly: integers in decimal,
// floats in hexadecimal notation (no rounding).
func resultsDigest(res sim.Results) string {
	h := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	return fmt.Sprintf("cycles=%d gen=%d inj=%d del=%d thr=%s load=%s lat=%s p99=%s max=%s net=%s hops=%s ind=%s faults=%+v",
		res.Cycles, res.Generated, res.Injected, res.Delivered,
		h(res.Throughput), h(res.InjectedLoad),
		h(res.AvgLatency), h(res.P99Latency), h(res.MaxLatency), h(res.AvgNetLatency),
		h(res.AvgHops), h(res.IndirectFrac), res.Faults)
}

// goldenParts is everything a scenario constructs fresh per run, so
// every run starts from identical state.
type goldenParts struct {
	topo   topo.Topology
	cfg    sim.Config
	alg    sim.RoutingAlgorithm
	work   sim.Workload
	faults *sim.FaultSchedule
}

// goldenSpec is one golden scenario: a setup builder plus the run
// shape (fixed cycle budget, or run-until-drained).
type goldenSpec struct {
	name     string
	setup    func(t *testing.T) goldenParts
	warmup   int64
	cycles   int64 // > 0: Run(cycles); otherwise RunUntilDrained(maxDrain)
	maxDrain int64
	sharded  bool // also pin the P=2 sharded digest (TestGoldenStatsIdentity)
}

// runGoldenSerial executes a scenario on NewEngine's one shard.
func runGoldenSerial(t *testing.T, sc goldenSpec) sim.Results {
	t.Helper()
	p := sc.setup(t)
	net, err := sim.NewNetwork(p.topo, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(net, p.alg, p.work)
	if err != nil {
		t.Fatal(err)
	}
	if telHook != nil {
		telHook(e)
	}
	if p.faults != nil {
		if err := e.SetFaultSchedule(p.faults); err != nil {
			t.Fatal(err)
		}
	}
	e.Warmup = sc.warmup
	if sc.cycles > 0 {
		e.Run(sc.cycles)
	} else if !e.RunUntilDrained(sc.maxDrain) {
		t.Fatalf("%s: did not drain", sc.name)
	}
	return e.Results()
}

// openUniform builds the standard open-loop uniform workload.
func openUniform(tp topo.Topology, load float64) sim.Workload {
	return &traffic.OpenLoop{Pattern: traffic.Uniform{N: tp.Nodes()}, Load: load, PacketFlits: 4}
}

var goldenSpecs = []goldenSpec{
	{
		name: "mlfm-min-uni",
		setup: func(t *testing.T) goldenParts {
			tp := mustMLFM(t, 4)
			alg := routing.NewMinimal(tp)
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: openUniform(tp, 0.35)}
		},
		warmup: 1000, cycles: 8000,
	},
	{
		name: "sf-inr-uni",
		setup: func(t *testing.T) goldenParts {
			tp := mustSF(t, 5)
			alg := routing.NewValiant(tp)
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: openUniform(tp, 0.5)}
		},
		warmup: 1000, cycles: 8000,
	},
	{
		name: "oft-min-wc",
		setup: func(t *testing.T) goldenParts {
			tp := mustOFT(t, 3)
			wc, err := traffic.WorstCase(tp, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			alg := routing.NewMinimal(tp)
			w := &traffic.OpenLoop{Pattern: wc, Load: 1.0, PacketFlits: 4}
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: w}
		},
		warmup: 2000, cycles: 10000,
	},
	{
		name: "mlfm-ugal-uni",
		setup: func(t *testing.T) goldenParts {
			tp := mustMLFM(t, 4)
			cfg := sim.TestConfig(2)
			alg, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, C: 2}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return goldenParts{topo: tp, cfg: cfg, alg: alg, work: openUniform(tp, 0.6)}
		},
		warmup: 1000, cycles: 8000,
	},
	{
		name: "mlfm-inr-a2a",
		setup: func(t *testing.T) goldenParts {
			tp := mustMLFM(t, 3)
			alg := routing.NewValiant(tp)
			ex := traffic.AllToAll(tp.Nodes(), 2, rand.New(rand.NewSource(7)))
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: ex}
		},
		maxDrain: 4_000_000,
	},
	{
		name: "sf-min-faults",
		setup: func(t *testing.T) goldenParts {
			tp := mustSF(t, 5)
			fs, err := sim.RandomLinkFailures(tp, 4, 1500, 9)
			if err != nil {
				t.Fatal(err)
			}
			alg := routing.NewMinimal(tp)
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: openUniform(tp, 0.3), faults: fs}
		},
		warmup: 1000, cycles: 12000,
	},
	{
		name: "hx-min-uni",
		setup: func(t *testing.T) goldenParts {
			tp, err := topo.NewHyperX2D(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			alg := routing.NewMinimal(tp)
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: openUniform(tp, 0.4)}
		},
		warmup: 1000, cycles: 8000,
	},
	{
		name: "ft-min-uni",
		setup: func(t *testing.T) goldenParts {
			tp, err := topo.NewFatTree2(8)
			if err != nil {
				t.Fatal(err)
			}
			alg := routing.NewMinimal(tp)
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: openUniform(tp, 0.4)}
		},
		warmup: 1000, cycles: 8000,
	},
	{
		name: "mlfm-min-mtbf",
		setup: func(t *testing.T) goldenParts {
			tp := mustMLFM(t, 4)
			fs := sim.NewRandomFaultSchedule(tp, 2000, 800, 8000, 11)
			alg := routing.NewMinimal(tp)
			return goldenParts{topo: tp, cfg: sim.TestConfig(alg.NumVCs()), alg: alg, work: openUniform(tp, 0.25), faults: fs}
		},
		warmup: 1000, cycles: 12000,
	},
	{
		name: "sf7-min-uni-deep",
		setup: func(t *testing.T) goldenParts {
			tp := mustSF(t, 7)
			alg := routing.NewMinimal(tp)
			return goldenParts{topo: tp, cfg: sim.DefaultConfig(alg.NumVCs()), alg: alg, work: openUniform(tp, 0.7)}
		},
		warmup: 500, cycles: 3000, sharded: true,
	},
	{
		name: "sf7-ugal-wc-deep",
		setup: func(t *testing.T) goldenParts {
			tp := mustSF(t, 7)
			wc, err := traffic.WorstCase(tp, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(4)
			alg, err := routing.NewUGAL(tp, routing.UGALConfig{NI: 4, CSF: 1, SFCost: true}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := &traffic.OpenLoop{Pattern: wc, Load: 0.6, PacketFlits: 4}
			return goldenParts{topo: tp, cfg: cfg, alg: alg, work: w}
		},
		warmup: 500, cycles: 3000, sharded: true,
	},
}

// The "-l10" scenarios re-run the closed-loop exchange and both fault
// styles on TestConfig with the paper's latencies (LinkLatency 10,
// SwitchLatency 20), on one shard and on two: the only golden lines
// where a drain or a fault schedule meets a sharded engine with more
// than one cycle of lookahead. Appended, so every earlier line keeps
// its index.
func init() {
	for _, i := range []int{4, 5, 8} { // mlfm-inr-a2a, sf-min-faults, mlfm-min-mtbf
		sc := goldenSpecs[i]
		setup := sc.setup
		sc.name += "-l10"
		sc.sharded = true
		sc.setup = func(t *testing.T) goldenParts {
			p := setup(t)
			p.cfg.LinkLatency, p.cfg.SwitchLatency = 10, 20
			return p
		}
		goldenSpecs = append(goldenSpecs, sc)
	}
}
