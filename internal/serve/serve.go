// Package serve is the design-space query service: it answers
// (topology, routing, pattern, load) questions through a three-tier
// resolution path ordered by fidelity and cost.
//
//  1. sim-cache — the content-addressed store already holds a
//     flit-level result for the point (from a previous sweep,
//     campaign, or escalation); answered in microseconds,
//     byte-identical to what the sweep produced.
//  2. fluid-cache / fluid — the analytic fluid model answers, from the
//     store when a screening sweep got there first, otherwise computed
//     (and recorded) on the spot. Both are stamped with the
//     calibration tolerance of their (family, pattern, routing)
//     scenario so the client knows how far to trust them.
//  3. escalation — when the escalation policy (the same
//     SelectEscalations band rule `diam2sweep -escalate-band` uses,
//     applied to the answered point alone) decides the point sits
//     where analytic fidelity runs out, the service returns the fluid
//     answer immediately plus a ticket, and re-simulates the point at
//     flit-level fidelity in the background. The result lands in the
//     store under the ordinary escalate-point key, so the next query
//     for the point is a sim-cache hit — every escalation permanently
//     upgrades the design space.
//
// Identical in-flight fluid computations are deduplicated
// (singleflight); identical escalations share one ticket. Admission
// control and graceful drain live in the HTTP layer (http.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"diam2/internal/campaign"
	"diam2/internal/harness"
	"diam2/internal/store"
	"diam2/internal/telemetry"
)

// Resolution tiers, in the order Resolve tries them.
const (
	TierSimCache   = "sim-cache"   // flit-level result replayed from the store
	TierFluidCache = "fluid-cache" // analytic result replayed from the store
	TierFluid      = "fluid"       // analytic result computed (and recorded) now
)

// escBacklog bounds the escalation tickets queued but not yet running;
// a full backlog answers "rejected" with a retry note.
const escBacklog = 256

// Escalation ticket states.
const (
	TicketQueued  = "queued"
	TicketRunning = "running"
	TicketDone    = "done"
	TicketFailed  = "failed"
)

// Query is one design-space question.
type Query struct {
	Topo    string  `json:"topo"`    // preset name, e.g. "SF(q=5,p=3)"
	Routing string  `json:"routing"` // a harness.AlgKind the fluid tier answers: MIN or INR
	Pattern string  `json:"pattern"` // a harness.PatternKind: UNI or WC
	Load    float64 `json:"load"`    // offered load fraction in (0, 1]
}

// Tolerance stamps an analytic answer with how far to trust it: the
// measured calibration tolerance of its (family, pattern, routing)
// scenario (see harness.Scenarios). Recorded is false when no golden
// scenario covers the combination.
type Tolerance struct {
	RelErr   float64 `json:"rel_err"` // recorded |fluid-sim|/sim bound
	Recorded bool    `json:"recorded"`
}

// EscalationStatus is the escalation half of an answer: whether the
// policy picked the point, the ticket to poll, and why.
type EscalationStatus struct {
	// Ticket is the id to poll at /ticket/<id>; empty when the
	// escalation was rejected (queue full or server draining).
	Ticket  string   `json:"ticket,omitempty"`
	State   string   `json:"state"`
	Reasons []string `json:"reasons"`
	Note    string   `json:"note,omitempty"`
}

// Answer is one resolved query.
type Answer struct {
	Query Query  `json:"query"`
	Tier  string `json:"tier"` // TierSimCache, TierFluidCache or TierFluid
	Key   string `json:"key"`  // canonical store key of the answering record
	// Estimate is the analytic answer (always present: even a
	// sim-cache hit carries it for comparison).
	Estimate *harness.ScreenPoint `json:"estimate,omitempty"`
	// Sim is the flit-level answer, present on sim-cache hits.
	Sim        *harness.LoadPoint `json:"sim,omitempty"`
	Tolerance  *Tolerance         `json:"tolerance,omitempty"`
	Escalation *EscalationStatus  `json:"escalation,omitempty"`
	ElapsedMS  float64            `json:"elapsed_ms"`
}

// Ticket is the poll-able state of one background escalation.
type Ticket struct {
	ID      string   `json:"id"`
	Query   Query    `json:"query"`
	Point   string   `json:"point"` // scheduler point key ("escalate|...")
	Key     string   `json:"key"`   // canonical sim-tier store key
	Reasons []string `json:"reasons"`
	State   string   `json:"state"`
	Created string   `json:"created"`
	Updated string   `json:"updated"`
	Error   string   `json:"error,omitempty"`
	// The escalation's verdict, set once State is TicketDone. RelErr
	// is -1 when the simulator delivered nothing: JSON has no +Inf
	// (fluid.Estimate.AvgLatency's sentinel, for the same reason).
	*harness.Escalation
}

// ticket is the mutable server-side ticket; the embedded Ticket is
// what clients see, pick is what the escalation worker runs. All
// mutation happens under Server.mu.
type ticket struct {
	Ticket
	pick harness.EscalationPick
}

// BadQueryError marks a client error (HTTP 400) apart from a server
// failure.
type BadQueryError struct{ msg string }

func (e *BadQueryError) Error() string { return e.msg }

func badQuery(format string, args ...any) error {
	return &BadQueryError{msg: fmt.Sprintf(format, args...)}
}

// Config assembles a Server.
type Config struct {
	// Presets is the query-able topology set.
	Presets []harness.Preset
	// Scale pins the simulation fidelity and seeds; it must match the
	// scale of any sweeps sharing the store, or keys will not align.
	Scale harness.Scale
	// Store is the content-addressed result store (required).
	Store *store.Store
	// Band is the escalation band passed to SelectEscalations; <= 0
	// disables escalation entirely.
	Band float64
	// QueueMax bounds concurrently admitted HTTP queries; excess gets
	// 429 + Retry-After. <= 0 defaults to 64.
	QueueMax int
	// EscWorkers is the background escalation worker-pool size; <= 0
	// defaults to 1.
	EscWorkers int
	// Registry, when non-nil, receives the per-tier query latency
	// histograms (query_ms.<tier>) and the screen.* counters.
	Registry *telemetry.Registry
	// Campaign, when non-nil, runs escalations under the multi-process
	// lease protocol (the store must then be opened store.Shared), so
	// external `diam2sweep -campaign` workers can share the load.
	Campaign *campaign.Worker
}

// Server resolves design-space queries. Create with New, serve over
// HTTP with Register (http.go), stop with Close.
type Server struct {
	cfg Config
	scr *harness.Screener

	baseCtx context.Context // computation lifetime; cancelled by forced Close
	stop    context.CancelFunc

	queue chan struct{} // HTTP admission semaphore

	mu      sync.Mutex
	flight  map[string]*flight // in-flight fluid computes by canonical key
	tickets map[string]*ticket // by id
	byKey   map[string]*ticket // by canonical sim key (dedupe)
	seq     int
	closing bool

	escQ  chan *ticket // holds up to escBacklog queued-but-not-running tickets
	escWG sync.WaitGroup

	// onFluidCompute, when set (tests), runs inside the singleflight
	// leader before the computation — the hook the dedupe and
	// backpressure tests use to count and to stall computations.
	onFluidCompute func()

	now func() time.Time
}

// flight is one in-flight fluid computation; followers wait on done.
type flight struct {
	done chan struct{}
	sp   harness.ScreenPoint
	err  error
}

// New builds a Server and its screener, which computes every served
// combination's link loads; nothing listens yet (Register mounts the
// HTTP surface, cmd/diam2serve the listener).
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	if len(cfg.Presets) == 0 {
		return nil, errors.New("serve: Config.Presets is empty")
	}
	// The registry rides on the scale so the screener and every
	// scheduler submission below meter into it. The screener is built
	// on the caller's pool; queries then run one point at a time with
	// the store, under the server-lifetime context (a computation must
	// not be lost because the client that started it hung up).
	cfg.Scale.Telemetry = harness.TelemetryPlan{Registry: cfg.Registry}
	scr, err := harness.NewScreener(cfg.Presets, cfg.Scale)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	cfg.Scale.Sched = harness.Sched{Workers: 1, Ctx: ctx, Store: cfg.Store}
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = 64
	}
	if cfg.EscWorkers <= 0 {
		cfg.EscWorkers = 1
	}
	s := &Server{
		cfg:     cfg,
		scr:     scr,
		baseCtx: ctx,
		stop:    stop,
		queue:   make(chan struct{}, cfg.QueueMax),
		flight:  make(map[string]*flight),
		tickets: make(map[string]*ticket),
		byKey:   make(map[string]*ticket),
		escQ:    make(chan *ticket, escBacklog),
		now:     time.Now,
	}
	for i := 0; i < cfg.EscWorkers; i++ {
		s.escWG.Add(1)
		go s.escWorker()
	}
	return s, nil
}

// Resolve answers one query through the tier ladder and meters the
// answering tier's latency on the registry.
func (s *Server) Resolve(ctx context.Context, q Query) (Answer, error) {
	start := s.now()
	ans, err := s.resolve(ctx, q)
	if err != nil {
		return ans, err
	}
	elapsed := s.now().Sub(start)
	ans.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	s.cfg.Registry.Observe(queryMetric[ans.Tier], elapsed)
	return ans, nil
}

// queryMetric names each tier's latency histogram on the registry.
var queryMetric = map[string]string{
	TierSimCache:   "query_ms." + TierSimCache,
	TierFluidCache: "query_ms." + TierFluidCache,
	TierFluid:      "query_ms." + TierFluid,
}

func (s *Server) resolve(ctx context.Context, q Query) (Answer, error) {
	alg, pat, err := s.normalize(&q)
	if err != nil {
		return Answer{}, err
	}

	// Tier 1: a flit-level result already in the store. The point key
	// is the one Screener.Escalate writes, so results from `diam2sweep
	// -screen -escalate-band` runs and from this server's own past
	// escalations both satisfy it.
	simPoint := harness.EscalatePointKey(q.Topo, alg, pat, q.Load)
	lp, simKey, ok := harness.Lookup(s.cfg.Scale, harness.Point[harness.LoadPoint]{Key: simPoint})
	if ok {
		ans := Answer{Query: q, Tier: TierSimCache, Key: simKey, Sim: &lp}
		// The analytic estimate rides along for comparison; it is
		// pure computation, never stored from here.
		if sp, err := s.scr.Point(q.Topo, alg, pat, q.Load); err == nil {
			ans.Estimate = &sp
			ans.Tolerance = tolerance(sp)
		}
		return ans, nil
	}

	// Tier 2: the analytic answer, cached or computed. The point is
	// the one Screener.Sweep submits, so screening sweeps pre-warm this
	// tier.
	fluidScale := s.cfg.Scale
	fluidScale.Tier = store.TierFluid
	fluidPoint := s.scr.SchedPoint(q.Topo, alg, pat, q.Load)
	tier := TierFluidCache
	sp, fluidKey, ok := harness.Lookup(fluidScale, fluidPoint)
	if !ok || sp.Topo == "" {
		tier = TierFluid
		// The lookup above already missed (or found a record without a
		// topology): recompute and overwrite rather than look again.
		fluidScale.Sched.Force = true
		sp, err = s.fluidCompute(ctx, fluidScale, fluidKey, fluidPoint)
		if err != nil {
			return Answer{}, err
		}
	}
	ans := Answer{Query: q, Tier: tier, Key: fluidKey, Estimate: &sp, Tolerance: tolerance(sp)}

	// Tier 3: the escalation policy decides whether this point
	// deserves flit-level fidelity; if so the client gets a ticket to
	// poll while the simulator runs in the background.
	if picks := harness.SelectEscalations([]harness.ScreenPoint{sp}, s.cfg.Band); len(picks) == 1 {
		ans.Escalation = s.submitEscalation(q, picks[0], simPoint, simKey)
	}
	return ans, nil
}

// normalize validates the query in place (filling routing/pattern
// defaults) and resolves the harness kinds.
func (s *Server) normalize(q *Query) (harness.AlgKind, harness.PatternKind, error) {
	if q.Routing == "" {
		q.Routing = "MIN"
	}
	if q.Pattern == "" {
		q.Pattern = "UNI"
	}
	if _, ok := s.scr.Preset(q.Topo); !ok {
		names := make([]string, 0, len(s.cfg.Presets))
		for _, p := range s.cfg.Presets {
			names = append(names, p.Name)
		}
		return 0, 0, badQuery("unknown topology %q (serving: %v)", q.Topo, names)
	}
	// An adaptive kind parses, but every answer carries an analytic
	// estimate and the fluid tier has none for it.
	alg, err := harness.ParseAlg(q.Routing)
	if err != nil || harness.Screenable(alg) != nil {
		return 0, 0, badQuery("routing %q: want MIN or INR", q.Routing)
	}
	pat, err := harness.ParsePattern(q.Pattern)
	if err != nil {
		return 0, 0, badQuery("pattern %q: want UNI or WC", q.Pattern)
	}
	if !(q.Load > 0 && q.Load <= 1) { // also rejects NaN
		return 0, 0, badQuery("load %v outside (0, 1]", q.Load)
	}
	return alg, pat, nil
}

// tolerance is the calibration stamp of an analytic answer.
func tolerance(sp harness.ScreenPoint) *Tolerance {
	tol, recorded := harness.ToleranceFor(sp.Family, sp.Pat, sp.Alg)
	return &Tolerance{RelErr: tol, Recorded: recorded}
}

// fluidCompute computes (and records) one fluid point through the
// scheduler, deduplicating concurrent identical computations: the
// first caller computes, everyone else waits for its result.
func (s *Server) fluidCompute(ctx context.Context, sc harness.Scale, key string, pt harness.Point[harness.ScreenPoint]) (harness.ScreenPoint, error) {
	s.mu.Lock()
	if f, ok := s.flight[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.sp, f.err
		case <-ctx.Done():
			return harness.ScreenPoint{}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flight[key] = f
	s.mu.Unlock()
	defer func() {
		close(f.done)
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
	}()
	if s.onFluidCompute != nil {
		s.onFluidCompute()
	}
	// Run through the scheduler with the store attached: the record
	// (key, point, seed, tier, payload) comes out identical to the
	// one a ScreenSweep at this scale writes.
	res, err := harness.Collect(sc, []harness.Point[harness.ScreenPoint]{pt})
	if err != nil {
		f.err = err
		return harness.ScreenPoint{}, err
	}
	f.sp = res[0]
	return f.sp, nil
}

// submitEscalation hands a picked point to the background workers,
// deduplicating by canonical sim key: repeat queries poll the same
// ticket, and a point whose escalation already succeeded is not
// re-run (its result answers future queries from the sim-cache tier).
func (s *Server) submitEscalation(q Query, pick harness.EscalationPick, simPoint, simKey string) *EscalationStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.byKey[simKey]; ok && t.State != TicketFailed {
		return &EscalationStatus{Ticket: t.ID, State: t.State, Reasons: pick.Reasons}
	}
	if s.closing {
		return &EscalationStatus{State: "rejected", Reasons: pick.Reasons, Note: "server draining"}
	}
	s.seq++
	now := s.now().UTC().Format(time.RFC3339)
	t := &ticket{
		Ticket: Ticket{
			ID:      fmt.Sprintf("esc-%06d", s.seq),
			Query:   q,
			Point:   simPoint,
			Key:     simKey,
			Reasons: pick.Reasons,
			State:   TicketQueued,
			Created: now,
			Updated: now,
		},
		pick: pick,
	}
	select {
	case s.escQ <- t:
		s.tickets[t.ID] = t
		s.byKey[simKey] = t
		return &EscalationStatus{Ticket: t.ID, State: t.State, Reasons: pick.Reasons}
	default:
		s.seq--
		return &EscalationStatus{State: "rejected", Reasons: pick.Reasons, Note: "escalation backlog full; retry later"}
	}
}

// escWorker drains the escalation queue until Close closes it.
func (s *Server) escWorker() {
	defer s.escWG.Done()
	for t := range s.escQ {
		s.runEscalation(t)
	}
}

// runEscalation re-simulates one picked point at flit-level fidelity
// through the screener's Escalate, the call diam2sweep -screen makes:
// same scale, same seeds, same store keys as the sweep path — and
// scores it against its calibration tolerance.
func (s *Server) runEscalation(t *ticket) {
	if err := s.baseCtx.Err(); err != nil {
		s.finishTicket(t, nil, fmt.Errorf("server shut down before the point ran: %w", err))
		return
	}
	s.setTicketState(t, TicketRunning)
	sc := s.cfg.Scale
	sc.Sched.Campaign = s.cfg.Campaign
	escs, err := s.scr.Escalate([]harness.EscalationPick{t.pick}, sc)
	if err != nil {
		s.finishTicket(t, nil, err)
		return
	}
	s.finishTicket(t, &escs[0], nil)
}

func (s *Server) setTicketState(t *ticket, state string) {
	s.mu.Lock()
	t.State = state
	t.Updated = s.now().UTC().Format(time.RFC3339)
	s.mu.Unlock()
}

func (s *Server) finishTicket(t *ticket, esc *harness.Escalation, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Updated = s.now().UTC().Format(time.RFC3339)
	if err != nil {
		t.State = TicketFailed
		t.Error = err.Error()
		return
	}
	t.State = TicketDone
	if math.IsInf(esc.RelErr, 1) {
		esc.RelErr = -1
	}
	t.Escalation = esc
}

// Ticket returns a snapshot of one escalation ticket.
func (s *Server) Ticket(id string) (Ticket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tickets[id]
	if !ok {
		return Ticket{}, false
	}
	return t.Ticket, true
}

// Tickets returns snapshots of every escalation ticket, oldest first.
func (s *Server) Tickets() []Ticket {
	s.mu.Lock()
	out := make([]Ticket, 0, len(s.tickets))
	for _, t := range s.tickets {
		out = append(out, t.Ticket)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close drains the server: no new escalations are accepted, queued
// and running ones get until ctx expires to finish (their results
// still land in the store), then the computation context is cancelled
// and the remaining tickets fail. In-flight Resolve calls are the
// HTTP server's to drain (http.Server.Shutdown); Close only owns the
// background work. Idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	if !already {
		close(s.escQ)
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.escWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.stop() // abort running escalations; workers fail the rest fast
		<-done
	}
	s.stop()
	return err
}
