package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"diam2/internal/harness"
	"diam2/internal/serve"
	"diam2/internal/store"
)

// The serve_mixed workload. Offered loads are generated in units of
// 1e-4, the resolution of the store's point keys. The screened grid
// holds every multiple of loadUnits/serveGrid units, so a query on a
// multiple is a store hit (tier fluid-cache) and any other load is a
// distinct cold query: a live fluid estimate plus a store append.
const (
	loadUnits     = 10000
	serveGrid     = 2500
	coldOneIn     = 5    // one single query in five is off-grid
	roundQueries  = 3000 // single queries per client per round
	warmupQueries = 2500 // untimed single queries per client before round 1
	batchLoads    = 90   // on-grid loads per batch request
	serveSetups   = 3    // full set-ups per run; setup_s is the median
)

// combo is one (topology, routing, pattern) the server answers for.
type combo struct {
	topo string
	alg  harness.AlgKind
	pat  harness.PatternKind
}

// query is one generated GET /query.
type query struct {
	combo
	units int // offered load in 1e-4
	cold  bool
	url   string
}

func (q query) load() float64 { return float64(q.units) / loadUnits }

// path is the query as a GET request path.
func (q query) path() string {
	return "/query?" + url.Values{
		"topo":    {q.topo},
		"routing": {q.alg.String()},
		"pattern": {q.pat.String()},
		"load":    {strconv.FormatFloat(q.load(), 'f', 4, 64)},
	}.Encode()
}

// queryGen derives the query sequence from the seed. Cold loads come
// from a shuffled pool of every off-grid (combo, load) and are never
// reused, so a cold query is cold exactly once.
type queryGen struct {
	rng    *rand.Rand
	combos []combo
	step   int // units between grid loads
	pool   []query
}

func newQueryGen(seed int64, presets []harness.Preset, grid int) *queryGen {
	g := &queryGen{rng: rand.New(rand.NewSource(seed)), step: loadUnits / grid}
	for _, p := range presets {
		for _, alg := range []harness.AlgKind{harness.AlgMIN, harness.AlgINR} {
			for _, pat := range []harness.PatternKind{harness.PatUNI, harness.PatWC} {
				g.combos = append(g.combos, combo{p.Name, alg, pat})
			}
		}
	}
	for _, c := range g.combos {
		for u := 1; u <= loadUnits; u++ {
			if u%g.step != 0 {
				g.pool = append(g.pool, query{combo: c, units: u, cold: true})
			}
		}
	}
	g.rng.Shuffle(len(g.pool), func(i, j int) { g.pool[i], g.pool[j] = g.pool[j], g.pool[i] })
	return g
}

// hit returns a query on the screened grid.
func (g *queryGen) hit() query {
	c := g.combos[g.rng.Intn(len(g.combos))]
	return query{combo: c, units: g.step * (1 + g.rng.Intn(loadUnits/g.step))}
}

// cold takes the next unused off-grid query; ok is false once the pool
// is spent.
func (g *queryGen) cold() (q query, ok bool) {
	if len(g.pool) == 0 {
		return query{}, false
	}
	q, g.pool = g.pool[len(g.pool)-1], g.pool[:len(g.pool)-1]
	return q, true
}

// mixed returns n queries, one in coldOneIn of them cold, interleaved,
// with their URLs against base built ahead of the timed loop.
func (g *queryGen) mixed(n int, base string) []query {
	qs := make([]query, 0, n)
	for len(qs) < n {
		q := g.hit()
		if g.rng.Intn(coldOneIn) == 0 {
			c, ok := g.cold()
			if !ok {
				break
			}
			q = c
		}
		q.url = base + q.path()
		qs = append(qs, q)
	}
	return qs
}

// syncBuffer collects a child's standard error while the benchmark
// polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serverProc is a running diam2serve.
type serverProc struct {
	cmd     *exec.Cmd
	log     *syncBuffer
	base    string        // http://127.0.0.1:PORT
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // valid after exited is closed
}

var bannerURL = regexp.MustCompile(`at (http://[0-9.:]+)/query`)

// startServer starts diam2serve on a loopback port of the kernel's
// choosing and returns once it has answered first with 200.
func startServer(ctx context.Context, bin, storeDir string, seed int64, procs int, first string) (*serverProc, error) {
	cmd := exec.CommandContext(ctx, bin, "-scale", "quick", "-seed", strconv.FormatInt(seed, 10),
		"-escalate-band", "0", "-store", storeDir, "-http", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = childAttr()
	s := &serverProc{cmd: cmd, log: &syncBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = s.log
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()

	deadline := time.After(30 * time.Second)
	for {
		if m := bannerURL.FindStringSubmatch(s.log.String()); m != nil {
			s.base = m[1]
			break
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("diam2serve exited before listening (%v): %s", s.waitErr, s.log.String())
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("diam2serve did not announce its address: %s", s.log.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	resp, err := http.Get(s.base + first)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("diam2serve first query: %w", err)
	}
	return s, nil
}

// kill stops the server at once and waits for it; harmless once it has
// exited.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// stop asks the server to drain and requires a clean exit.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("diam2serve did not exit within 30 s of SIGTERM")
	}
	if s.waitErr != nil {
		return fmt.Errorf("diam2serve after SIGTERM: %w: %s", s.waitErr, s.log.String())
	}
	if !strings.Contains(s.log.String(), "drained") {
		return fmt.Errorf("diam2serve exited without draining: %s", s.log.String())
	}
	return nil
}

// serveRun is the state of one serve_mixed run.
type serveRun struct {
	o       opts
	procs   int // GOMAXPROCS of the server, and the number of clients
	presets []harness.Preset
	scale   harness.Scale
	grid    int
	tmp     string // everything this run writes, removed at the end
	bin     string
	gen     *queryGen
	scr     *harness.Screener // the in-process reference answers are checked against
	batch   []byte

	// Per-request outcomes, appended by round and batchOnce.
	hitMS, coldMS, batchMS []float64
	attempted, failed      int
	rejected               int
	answerBytes            int64
}

// setUp is what a user waits for before the first answer: screen the
// grid into a fresh store, then start the server on it. It returns the
// store directory, the running server and how long the two steps took.
func (r *serveRun) setUp(tr *tracer) (dir string, srv *serverProc, screenS, startS float64, err error) {
	dir, err = os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return "", nil, 0, 0, err
	}
	span := tr.start("harness.screen", "", -1)
	started := time.Now()
	st, err := store.Open(dir, store.Options{CreatedBy: "bench"})
	if err != nil {
		return "", nil, 0, 0, err
	}
	sc := r.scale
	sc.Sched = harness.Sched{Workers: r.procs, Ctx: r.o.ctx, Store: st}
	pts, err := harness.ScreenSweep(r.presets, harness.ScreenSpec{Loads: harness.ScreenGridLoads(r.grid)}, sc)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	screenS = time.Since(started).Seconds()
	tr.end(span)
	if err != nil {
		return "", nil, 0, 0, err
	}
	if want := len(r.gen.combos) * r.grid; len(pts) != want {
		return "", nil, 0, 0, fmt.Errorf("screened %d points, want %d", len(pts), want)
	}

	span = tr.start("serve.start", "", -1)
	started = time.Now()
	srv, err = startServer(r.o.ctx, r.bin, dir, r.scale.Seed, r.procs, r.gen.hit().path())
	startS = time.Since(started).Seconds()
	tr.end(span)
	return dir, srv, screenS, startS, err
}

// check compares one answer with what the query must produce: the tier
// its load implies, and on every hundredth query the estimate an
// in-process Screener computes for the same point.
func (r *serveRun) check(q query, seq int, ans serve.Answer) error {
	want := serve.TierFluidCache
	if q.cold {
		want = serve.TierFluid
	}
	if ans.Tier != want {
		return fmt.Errorf("%s load %.4f answered from tier %q, want %q", q.topo, q.load(), ans.Tier, want)
	}
	if seq%100 == 0 {
		sp, err := r.scr.Point(q.topo, q.alg, q.pat, q.load())
		if err != nil {
			return err
		}
		if ans.Estimate == nil || *ans.Estimate != sp {
			return fmt.Errorf("%s load %.4f: estimate %+v, in-process %+v", q.topo, q.load(), ans.Estimate, sp)
		}
	}
	return nil
}

// newClient is one caller: a single keep-alive loopback connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// round has every client issue its queries back to back, each waiting
// for the reply before sending the next (a closed loop). It returns the
// completed queries per second. Latency is taken at the client, from
// before the request is sent until the body has been read.
func (r *serveRun) round(clients []*http.Client, qs [][]query, tr *tracer, timed *rounds) error {
	type outcome struct {
		hitMS, coldMS []float64
		failed        int
		rejected      int
		bytes         int64
		err           error
	}
	outs := make([]outcome, len(clients))
	var wg sync.WaitGroup
	started := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			for i, q := range qs[c] {
				span := tr.start("serve.query", strconv.Itoa(c)+"/"+strconv.Itoa(i), -1)
				sent := time.Now()
				resp, err := clients[c].Get(q.url)
				if err != nil {
					out.err = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				elapsed := ms(time.Since(sent).Seconds())
				tr.end(span)
				if err != nil {
					out.err = err
					return
				}
				out.bytes += int64(len(body))
				if q.cold {
					out.coldMS = append(out.coldMS, elapsed)
				} else {
					out.hitMS = append(out.hitMS, elapsed)
				}
				var ans serve.Answer
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					out.rejected++
					out.failed++
				case resp.StatusCode != http.StatusOK:
					logf("query %s: status %d", q.url, resp.StatusCode)
					out.failed++
				case json.Unmarshal(body, &ans) != nil:
					logf("query %s: undecodable answer", q.url)
					out.failed++
				default:
					if err := r.check(q, i, ans); err != nil {
						logf("%v", err)
						out.failed++
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(started).Seconds()
	n := 0
	var all []float64
	for c, out := range outs {
		if out.err != nil {
			return out.err
		}
		n += len(qs[c])
		if timed == nil {
			continue
		}
		all = append(append(all, out.hitMS...), out.coldMS...)
		r.hitMS = append(r.hitMS, out.hitMS...)
		r.coldMS = append(r.coldMS, out.coldMS...)
		r.attempted += len(qs[c])
		r.failed += out.failed
		r.rejected += out.rejected
		r.answerBytes += out.bytes
	}
	if timed != nil {
		timed.add(float64(n), wall, all)
	}
	return nil
}

// batchOnce posts one grid request over on-grid loads and requires an
// answer from the store for every point of it.
func (r *serveRun) batchOnce(client *http.Client, base string, tr *tracer) error {
	span := tr.start("serve.batch", strconv.Itoa(len(r.batchMS)), -1)
	sent := time.Now()
	resp, err := client.Post(base+"/query/batch", "application/json", bytes.NewReader(r.batch))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.batchMS = append(r.batchMS, ms(time.Since(sent).Seconds()))
	tr.end(span)
	if err != nil {
		return err
	}
	r.attempted++
	var br serve.BatchResponse
	ok := resp.StatusCode == http.StatusOK && json.Unmarshal(body, &br) == nil &&
		br.Count == len(r.gen.combos)*batchLoads && len(br.Answers) == br.Count
	for _, ans := range br.Answers {
		ok = ok && ans.Tier == serve.TierFluidCache
	}
	if !ok {
		logf("batch: status %d, %d answers, or an answer not from the store", resp.StatusCode, br.Count)
		r.failed++
	}
	return nil
}

// buildServer compiles cmd/diam2serve into the run's temporary
// directory.
func (r *serveRun) buildServer() error {
	r.bin = filepath.Join(r.tmp, "diam2serve")
	cmd := exec.CommandContext(r.o.ctx, "go", "build", "-o", r.bin, "./cmd/diam2serve")
	cmd.Dir = r.o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building diam2serve: %w: %s", err, out)
	}
	return nil
}

// runServe is one run of serve_mixed.
func runServe(o opts, procs int) (res result, d digests, err error) {
	r := &serveRun{o: o, procs: procs, presets: harness.SmallPresets(), scale: harness.QuickScale(), grid: serveGrid}
	perRound, warmup, setups := roundQueries, warmupQueries, serveSetups
	if o.smoke {
		r.grid, perRound, warmup, setups = 100, 500, 100, 2
	}
	if r.scale.Seed, err = usableSeed(o.seed, r.presets); err != nil {
		return res, nil, err
	}
	r.gen = newQueryGen(o.seed, r.presets, r.grid)
	if r.scr, err = harness.NewScreener(r.presets, r.scale); err != nil {
		return res, nil, err
	}
	var grid serve.BatchGrid
	for k := 0; k < batchLoads; k++ {
		grid.Loads = append(grid.Loads, float64(r.gen.step*(1+k*(r.grid/batchLoads)))/loadUnits)
	}
	if r.batch, err = json.Marshal(serve.BatchRequest{Grid: &grid}); err != nil {
		return res, nil, err
	}
	if r.tmp, err = os.MkdirTemp(o.outDir, "serve-"); err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(r.tmp)
	if err = r.buildServer(); err != nil {
		return res, nil, err
	}

	var tr *tracer
	layers := map[string]float64{}
	if o.trace {
		tr = newTracer()
	}
	var (
		srv              *serverProc
		setupS, startS   []float64
		screenPointsPerS []float64
	)
	for i := 0; i < setups; i++ {
		dir, s, screenS, startSec, err := r.setUp(tr)
		if err != nil {
			return res, nil, err
		}
		srv = s
		defer srv.kill()
		setupS = append(setupS, screenS+startSec)
		startS = append(startS, startSec)
		screenPointsPerS = append(screenPointsPerS, float64(len(r.gen.combos)*r.grid)/screenS)
		if i == setups-1 {
			break
		}
		if err := srv.stop(); err != nil {
			return res, nil, err
		}
		if o.trace && i == 0 {
			if err := r.storeAndServeLayers(dir, layers); err != nil {
				return res, nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return res, nil, err
		}
	}
	clients := make([]*http.Client, r.procs)
	for c := range clients {
		clients[c] = newClient()
		defer clients[c].CloseIdleConnections()
	}
	split := func(n int) [][]query {
		qs := make([][]query, len(clients))
		for c := range qs {
			qs[c] = r.gen.mixed(n, srv.base)
		}
		return qs
	}
	if err := r.round(clients, split(warmup), nil, nil); err != nil {
		return res, nil, err
	}

	// Timed rounds until the budget is spent. The traced run records a
	// span per query on every other round, so the two kinds of round
	// give the tracing overhead; it needs one of each.
	var plain, traced rounds
	begin := time.Now()
	for n := 0; time.Since(begin).Seconds() < o.seconds || (tr != nil && n < 2); n++ {
		qs := split(perRound)
		if len(qs[len(qs)-1]) < perRound {
			logf("cold pool spent after %d rounds", n)
			break
		}
		roundTr, timed := (*tracer)(nil), &plain
		if tr != nil && n%2 == 1 {
			roundTr, timed = tr, &traced
		}
		if err := r.round(clients, qs, roundTr, timed); err != nil {
			return res, nil, err
		}
		if err := r.batchOnce(clients[0], srv.base, tr); err != nil {
			return res, nil, err
		}
	}
	rss := peakRSSMB(srv.cmd.Process.Pid)
	if err := srv.stop(); err != nil {
		logf("%v", err)
		r.failed++
	}
	logf("serve_mixed: %d rounds, %d hits, %d colds, %d batches in %.1f s",
		len(plain.Rate)+len(traced.Rate), len(r.hitMS), len(r.coldMS), len(r.batchMS), time.Since(begin).Seconds())

	if !o.trace {
		plain.log()
		res = newResult(endToEnd, map[string]float64{
			"setup_s":     median(setupS),
			"work_per_s":  median(plain.Rate),
			"op_p50_ms":   median(plain.P50),
			"peak_rss_mb": rss,
		})
	} else {
		layers["harness.screen_points_per_s"] = median(screenPointsPerS)
		layers["serve.start_s"] = median(startS)
		layers["serve.queries_per_s"] = median(plain.Rate)
		layers["serve.hit_p50_ms"] = median(r.hitMS)
		layers["serve.hit_p99_ms"] = percentile(r.hitMS, 99)
		layers["serve.cold_p50_ms"] = median(r.coldMS)
		layers["serve.cold_p99_ms"] = percentile(r.coldMS, 99)
		layers["serve.batch_p50_ms"] = median(r.batchMS)
		layers["serve.http_overhead_us"] = layers["serve.hit_p50_ms"]*1e3 - layers["serve.resolve_hit_us"]
		layers["serve.rejected"] = float64(r.rejected)
		layers["serve.answer_bytes"] = float64(r.answerBytes) / float64(len(r.hitMS)+len(r.coldMS))
		if len(traced.Rate) > 0 {
			layers["bench.trace_overhead_frac"] = median(plain.Rate)/median(traced.Rate) - 1
		}
		if err := tr.write(filepath.Join(o.outDir, "trace-serve_mixed.jsonl")); err != nil {
			return res, nil, err
		}
		res = newResult(perLayer, layers)
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	return res, nil, nil
}
