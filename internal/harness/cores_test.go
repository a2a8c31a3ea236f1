package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"diam2/internal/traffic"
)

// coresScale is a trimmed QuickScale for the Scale.Cores wiring tests.
func coresScale(cores int) Scale {
	sc := QuickScale()
	sc.Cycles = 6000
	sc.Warmup = 1200
	sc.A2APackets = 1
	sc.Cores = cores
	return sc
}

// TestRunSyntheticCores drives RunSynthetic through the sharded engine
// and pins the harness-level determinism contract: the same Scale
// (same Cores, thus the same partition) produces identical Results on
// every run.
func TestRunSyntheticCores(t *testing.T) {
	p := SmallPresets()[1] // MLFM(h=6)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func() any {
		res, err := RunSynthetic(tp, AlgMIN, p.BestAdaptive, PatUNI, 0.3, coresScale(2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded RunSynthetic is not deterministic:\n a %+v\n b %+v", a, b)
	}
}

// TestRunExchangeCores drains a closed-loop exchange on the sharded
// engine (Exchange carries the ParallelSafe marker via an atomic
// remaining-packet counter).
func TestRunExchangeCores(t *testing.T) {
	p := SmallPresets()[1]
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := coresScale(2)
	ex := traffic.AllToAll(tp.Nodes(), sc.A2APackets, rand.New(rand.NewSource(sc.Seed)))
	res, eff, err := RunExchange(tp, AlgMIN, p.BestAdaptive, ex, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != ex.TotalPackets() {
		t.Errorf("delivered %d of %d exchange packets", res.Delivered, ex.TotalPackets())
	}
	if eff <= 0 {
		t.Errorf("effective throughput = %v, want > 0", eff)
	}
}

// TestRunExchangeShortLists: an exchange with fewer node lists than
// the machine drains, on one core and on two — the nodes beyond the
// lists inject nothing — and one addressing a node outside the machine
// is refused before the engine starts.
func TestRunExchangeShortLists(t *testing.T) {
	p := SmallPresets()[0] // SF(q=5,p=3)
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2} {
		ex := traffic.NewExchange("pair", [][]traffic.Message{{{Dst: 1, Packets: 3}}, {{Dst: 0, Packets: 2}}}, true)
		res, _, err := RunExchange(tp, AlgMIN, p.BestAdaptive, ex, coresScale(cores))
		if err != nil {
			t.Fatalf("cores %d: %v", cores, err)
		}
		if res.Delivered != 5 {
			t.Errorf("cores %d: delivered %d of 5 packets", cores, res.Delivered)
		}
	}
	ex := traffic.NewExchange("far", [][]traffic.Message{{{Dst: tp.Nodes(), Packets: 1}}}, true)
	if _, _, err := RunExchange(tp, AlgMIN, p.BestAdaptive, ex, coresScale(1)); err == nil {
		t.Error("destination outside the topology accepted")
	}
}

// TestCoresRejectsTelemetry: telemetry collectors hook the serial
// engine's hot path, so a scale combining Cores > 1 with a telemetry
// sink must fail loudly instead of silently dropping events.
func TestCoresRejectsTelemetry(t *testing.T) {
	p := SmallPresets()[1]
	tp, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := coresScale(2)
	sc.Telemetry = TelemetryPlan{Sink: &TelemetrySink{}}
	if _, err := RunSynthetic(tp, AlgMIN, p.BestAdaptive, PatUNI, 0.3, sc); err == nil {
		t.Fatal("Cores=2 with a telemetry sink did not error")
	}
}

// TestCoresStoreKey pins the store-key policy for sharded runs: Cores
// 0 and 1 both mean the serial engine and share a key; any sharded
// configuration is keyed separately (its results follow a different
// determinism contract).
func TestCoresStoreKey(t *testing.T) {
	key := func(cores int) string {
		sc := QuickScale()
		sc.Cores = cores
		return sc.pointConfig("p").Key()
	}
	if key(0) != key(1) {
		t.Error("Cores=0 and Cores=1 produce different store keys; both are the serial engine")
	}
	if key(0) == key(2) {
		t.Error("Cores=2 shares a store key with the serial engine")
	}
	if key(2) == key(4) {
		t.Error("Cores=2 and Cores=4 share a store key; partitions differ")
	}
}
