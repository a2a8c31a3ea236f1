package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diam2/internal/harness"
	"diam2/internal/store"
	"diam2/internal/telemetry"
)

// testQuery is a point the escalation policy reliably picks at quick
// scale: SF worst-case minimal saturates at 1/6, so load 0.18 sits
// inside the 0.15 band — and its flit-level run is sub-second.
var testQuery = Query{Topo: "SF(q=5,p=3)", Routing: "MIN", Pattern: "WC", Load: 0.18}

func openStore(t testing.TB, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func newTestServer(t testing.TB, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Presets:  harness.SmallPresets(),
		Scale:    harness.QuickScale(),
		Store:    openStore(t, t.TempDir()),
		Band:     0.15,
		Registry: telemetry.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func waitTicket(t *testing.T, s *Server, id string) Ticket {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		tk, ok := s.Ticket(id)
		if !ok {
			t.Fatalf("ticket %q vanished", id)
		}
		switch tk.State {
		case TicketDone:
			return tk
		case TicketFailed:
			t.Fatalf("ticket %s failed: %s", id, tk.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticket %s stuck in %s", id, tk.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestResolveTierLadder walks one query through the whole tier ladder:
// cold it computes fluid (recording it), warm it answers fluid-cache,
// and once its escalation lands the same query is a sim-cache hit with
// a result byte-identical to the stored flit-level record.
func TestResolveTierLadder(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()

	estimates := func() int64 { return s.cfg.Registry.Snapshot().Counters["screen.estimates"] }
	before := estimates()
	cold, err := s.Resolve(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Tier != TierFluid {
		t.Fatalf("cold query answered from %q, want %q", cold.Tier, TierFluid)
	}
	if delta := estimates() - before; delta != 1 {
		t.Errorf("a served cold query advanced the registry's screen.estimates by %d, want 1", delta)
	}
	if cold.Estimate == nil || cold.Estimate.Saturation <= 0 {
		t.Fatalf("cold estimate = %+v", cold.Estimate)
	}
	if cold.Tolerance == nil || !cold.Tolerance.Recorded {
		t.Fatalf("SF WC MIN must carry a recorded calibration tolerance, got %+v", cold.Tolerance)
	}
	if cold.Escalation == nil || cold.Escalation.Ticket == "" {
		t.Fatalf("load 0.18 (sat 1/6, band 0.15) must escalate, got %+v", cold.Escalation)
	}
	hasBand := false
	for _, r := range cold.Escalation.Reasons {
		hasBand = hasBand || r == harness.ReasonBand
	}
	if !hasBand {
		t.Fatalf("escalation reasons %v lack %q", cold.Escalation.Reasons, harness.ReasonBand)
	}

	// The fluid record must be in the store under the canonical key —
	// the one a ScreenSweep at this scale writes.
	fluidScale := harness.QuickScale()
	fluidScale.Tier = store.TierFluid
	if want := fluidScale.CanonicalPointKey(harness.ScreenPointKey(testQuery.Topo, harness.AlgMIN, harness.PatWC, testQuery.Load)); cold.Key != want {
		t.Fatalf("fluid answer key %s, want the screening sweep's %s", cold.Key, want)
	}
	if _, ok := s.cfg.Store.Get(cold.Key); !ok {
		t.Fatalf("fluid record %s not stored", cold.Key)
	}

	warm, err := s.Resolve(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Tier != TierFluidCache && warm.Tier != TierSimCache {
		t.Fatalf("warm query answered from %q", warm.Tier)
	}
	if warm.Tier == TierFluidCache && *warm.Estimate != *cold.Estimate {
		t.Fatalf("cache replay drifted: %+v vs %+v", warm.Estimate, cold.Estimate)
	}
	// Repeat queries share the escalation ticket.
	if warm.Escalation != nil && warm.Escalation.Ticket != "" && warm.Escalation.Ticket != cold.Escalation.Ticket {
		t.Fatalf("repeat query got a second ticket %s (first %s)", warm.Escalation.Ticket, cold.Escalation.Ticket)
	}

	tk := waitTicket(t, s, cold.Escalation.Ticket)
	if tk.Escalation == nil || tk.Sim.Throughput <= 0 {
		t.Fatalf("done ticket = %+v", tk)
	}
	if !tk.Recorded || !tk.Within {
		t.Errorf("SF WC MIN escalation outside its recorded tolerance: relerr %.3f tol %.3f", tk.RelErr, tk.Tolerance)
	}

	after, err := s.Resolve(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if after.Tier != TierSimCache {
		t.Fatalf("post-escalation query answered from %q, want %q", after.Tier, TierSimCache)
	}
	if after.Sim == nil || *after.Sim != tk.Sim {
		t.Fatalf("sim-cache answer %+v != ticket result %+v", after.Sim, tk.Sim)
	}
	if after.Key != tk.Key {
		t.Fatalf("sim-cache key %s != ticket key %s", after.Key, tk.Key)
	}
	// The estimate still rides along for comparison.
	if after.Estimate == nil {
		t.Error("sim-cache answer dropped the analytic estimate")
	}

	// Telemetry metered every tier.
	hs := s.cfg.Registry.Snapshot().Histograms
	if hs["query_ms.fluid"].N != 1 || hs["query_ms."+after.Tier].N != 1 {
		t.Errorf("query telemetry = %+v", hs)
	}
}

// TestFluidRecordWithoutTopoRecomputed: a fluid record whose payload
// decodes without a topology is a miss. The query recomputes the point
// and overwrites the record, so the next query is a cache hit on a real
// estimate.
func TestFluidRecordWithoutTopoRecomputed(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	q := Query{Topo: "OFT(k=6)", Routing: "MIN", Pattern: "UNI", Load: 0.42}
	fluidScale := harness.QuickScale()
	fluidScale.Tier = store.TierFluid
	key := fluidScale.CanonicalPointKey(harness.ScreenPointKey(q.Topo, harness.AlgMIN, harness.PatUNI, q.Load))
	if err := s.cfg.Store.Put(store.Record{Key: key, Payload: []byte("{}")}); err != nil {
		t.Fatal(err)
	}

	first, err := s.Resolve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier != TierFluid || first.Estimate.Topo != q.Topo || first.Estimate.Saturation <= 0 {
		t.Fatalf("query over a topology-less record answered %q with %+v, want a fresh %q estimate", first.Tier, first.Estimate, TierFluid)
	}
	if rec, ok := s.cfg.Store.Get(key); !ok || string(rec.Payload) == "{}" {
		t.Fatalf("record %s not overwritten: %+v", key, rec)
	}

	second, err := s.Resolve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Tier != TierFluidCache || *second.Estimate != *first.Estimate {
		t.Fatalf("repeat query answered %q with %+v, want %q with %+v", second.Tier, second.Estimate, TierFluidCache, first.Estimate)
	}
}

// TestEscalationByteIdentity is the acceptance criterion: the record
// an escalated query eventually stores is byte-identical — same
// canonical key, same payload — to the same point run through the
// diam2sweep screen/escalate path into a different store.
func TestEscalationByteIdentity(t *testing.T) {
	// Serve path.
	s := newTestServer(t, nil)
	ans, err := s.Resolve(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Escalation == nil || ans.Escalation.Ticket == "" {
		t.Fatalf("no escalation ticket: %+v", ans.Escalation)
	}
	tk := waitTicket(t, s, ans.Escalation.Ticket)
	servedRec, ok := s.cfg.Store.Get(tk.Key)
	if !ok {
		t.Fatalf("escalated record %s not in the serve store", tk.Key)
	}

	// Sweep path, as diam2sweep -screen -escalate-band drives it.
	sweepStore := openStore(t, t.TempDir())
	sc := harness.QuickScale()
	sc.Sched.Store = sweepStore
	presets := harness.SmallPresets()[:1]
	spec := harness.ScreenSpec{
		Algs:  []harness.AlgKind{harness.AlgMIN},
		Pats:  []harness.PatternKind{harness.PatWC},
		Loads: []float64{0.15, 0.18},
	}
	points, err := harness.ScreenSweep(presets, spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	picks := harness.SelectEscalations(points, 0.15)
	if _, err := harness.EscalateSweep(picks, presets, sc); err != nil {
		t.Fatal(err)
	}
	sweptRec, ok := sweepStore.Get(tk.Key)
	if !ok {
		t.Fatalf("sweep path stored nothing under the serve key %s", tk.Key)
	}
	if !bytes.Equal(servedRec.Payload, sweptRec.Payload) {
		t.Fatalf("escalated payloads differ:\n serve: %s\n sweep: %s", servedRec.Payload, sweptRec.Payload)
	}
	if servedRec.Seed != sweptRec.Seed || servedRec.Point != sweptRec.Point {
		t.Fatalf("provenance differs: serve (seed %d, %s) vs sweep (seed %d, %s)",
			servedRec.Seed, servedRec.Point, sweptRec.Seed, sweptRec.Point)
	}

	// The fluid tier matches the sweep's too.
	fluidRec, ok := s.cfg.Store.Get(ans.Key)
	if !ok {
		t.Fatal("fluid record missing")
	}
	sweptFluid, ok := sweepStore.Get(ans.Key)
	if !ok {
		t.Fatalf("sweep path has no fluid record under %s", ans.Key)
	}
	if !bytes.Equal(fluidRec.Payload, sweptFluid.Payload) {
		t.Fatalf("fluid payloads differ:\n serve: %s\n sweep: %s", fluidRec.Payload, sweptFluid.Payload)
	}
	// Tier provenance: fluid records say so, sim records stay bare.
	if fluidRec.Tier != store.TierFluid || servedRec.Tier != store.TierSim {
		t.Errorf("record tiers: fluid %q, sim %q", fluidRec.Tier, servedRec.Tier)
	}
}

// TestSingleflight: concurrent identical cold queries share one
// computation (run under -race in CI).
func TestSingleflight(t *testing.T) {
	var computes atomic.Int32
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.Band = 0 })
	s.onFluidCompute = func() {
		computes.Add(1)
		entered <- struct{}{}
		<-release
	}

	q := Query{Topo: "OFT(k=6)", Routing: "MIN", Pattern: "UNI", Load: 0.42}
	const callers = 8
	var wg sync.WaitGroup
	answers := make([]Answer, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = s.Resolve(context.Background(), q)
		}(i)
	}
	<-entered                          // the leader is inside the computation
	time.Sleep(100 * time.Millisecond) // let the rest join the flight
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations for %d identical concurrent queries", n, callers)
	}
	for i := range answers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if answers[i].Estimate == nil || *answers[i].Estimate != *answers[0].Estimate {
			t.Fatalf("caller %d got a different answer", i)
		}
	}
}

// TestBadQueries: validation failures are BadQueryError (HTTP 400),
// not internal errors.
func TestBadQueries(t *testing.T) {
	s := newTestServer(t, nil)
	for _, q := range []Query{
		{Topo: "Nope(1)", Routing: "MIN", Pattern: "UNI", Load: 0.5},
		{Topo: "SF(q=5,p=3)", Routing: "UGAL", Pattern: "UNI", Load: 0.5},
		{Topo: "SF(q=5,p=3)", Routing: "A", Pattern: "UNI", Load: 0.5},
		{Topo: "SF(q=5,p=3)", Routing: "ATh", Pattern: "UNI", Load: 0.5},
		{Topo: "SF(q=5,p=3)", Routing: "MIN", Pattern: "A2A", Load: 0.5},
		{Topo: "SF(q=5,p=3)", Routing: "MIN", Pattern: "UNI", Load: 0},
		{Topo: "SF(q=5,p=3)", Routing: "MIN", Pattern: "UNI", Load: 1.5},
		{Topo: "SF(q=5,p=3)", Routing: "MIN", Pattern: "UNI", Load: math.NaN()},
		{Topo: "SF(q=5,p=3)", Routing: "MIN", Pattern: "UNI", Load: math.Inf(1)},
	} {
		_, err := s.Resolve(context.Background(), q)
		var bad *BadQueryError
		if err == nil || !errors.As(err, &bad) {
			t.Errorf("query %+v: error %v, want BadQueryError", q, err)
		}
	}
	// Routing and pattern default to MIN/UNI.
	ans, err := s.Resolve(context.Background(), Query{Topo: "SF(q=5,p=3)", Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Query.Routing != "MIN" || ans.Query.Pattern != "UNI" {
		t.Errorf("defaults = %+v", ans.Query)
	}
}

// TestEscalationDedupe: the same escalation-worthy point queried twice
// holds one ticket; a different point holds another.
func TestEscalationDedupe(t *testing.T) {
	s := newTestServer(t, nil)
	a1, err := s.Resolve(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Resolve(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Escalation == nil || a2.Escalation == nil {
		t.Fatal("escalation missing")
	}
	if a1.Escalation.Ticket != a2.Escalation.Ticket {
		t.Fatalf("tickets differ: %s vs %s", a1.Escalation.Ticket, a2.Escalation.Ticket)
	}
	other := testQuery
	other.Load = 0.15
	a3, err := s.Resolve(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Escalation == nil || a3.Escalation.Ticket == a1.Escalation.Ticket {
		t.Fatalf("distinct point shares the ticket: %+v", a3.Escalation)
	}
	if got := len(s.Tickets()); got != 2 {
		t.Fatalf("%d tickets, want 2", got)
	}
}
