package main

import (
	"context"
	"os"
	"time"

	"diam2/internal/harness"
	"diam2/internal/serve"
	"diam2/internal/store"
)

// storeAndServeLayers times, in this process, the layers diam2serve
// stacks on a screened store: opening it, reading and appending
// records, the fluid model cold and warm, and Server.Resolve without
// HTTP around it. dir is a store an earlier set-up screened and whose
// server has exited; the queries come from the same generator as the
// socket rounds', so no cold load is used twice.
func (r *serveRun) storeAndServeLayers(dir string, v map[string]float64) error {
	const hits, colds, puts = 5000, 1000, 5000

	started := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	v["store.open_s"] = time.Since(started).Seconds()
	_, segBytes, err := st.SegmentStats()
	if err != nil {
		return err
	}
	v["store.bytes_per_record"] = float64(segBytes) / float64(st.Len())

	fluidScale := r.scale
	fluidScale.Tier = store.TierFluid
	hitQs := make([]query, hits)
	keys := make([]string, hits)
	for i := range hitQs {
		hitQs[i] = r.gen.hit()
		keys[i] = fluidScale.CanonicalPointKey(harness.ScreenPointKey(hitQs[i].topo, hitQs[i].alg, hitQs[i].pat, hitQs[i].load()))
	}
	started = time.Now()
	for _, key := range keys {
		if _, ok := st.Get(key); !ok {
			return os.ErrNotExist
		}
	}
	v["store.get_us"] = time.Since(started).Seconds() * 1e6 / hits

	// Appends, timed on a store of their own with the screened payloads.
	recs := st.Records()
	if len(recs) > puts {
		recs = recs[:puts]
	}
	putDir, err := os.MkdirTemp(r.tmp, "put-")
	if err != nil {
		return err
	}
	putStore, err := store.Open(putDir, store.Options{CreatedBy: "bench"})
	if err != nil {
		return err
	}
	started = time.Now()
	for _, rec := range recs {
		if err := putStore.Put(rec); err != nil {
			putStore.Close()
			return err
		}
	}
	v["store.put_us"] = time.Since(started).Seconds() * 1e6 / float64(len(recs))
	if err := putStore.Close(); err != nil {
		return err
	}

	// The fluid model: the first point of a (topology, routing,
	// pattern) computes its link loads, later ones only evaluate.
	scr, err := harness.NewScreener(r.presets, r.scale)
	if err != nil {
		return err
	}
	var firstS float64
	var laterUS []float64
	for _, c := range r.gen.combos {
		started = time.Now()
		if _, err := scr.Point(c.topo, c.alg, c.pat, 0.5); err != nil {
			return err
		}
		firstS += time.Since(started).Seconds()
		for i := 1; i <= 100; i++ {
			started = time.Now()
			if _, err := scr.Point(c.topo, c.alg, c.pat, float64(i)/100); err != nil {
				return err
			}
			laterUS = append(laterUS, time.Since(started).Seconds()*1e6)
		}
	}
	v["fluid.linkloads_ms"] = ms(firstS)
	v["fluid.estimate_us"] = median(laterUS)

	// Resolve, as the HTTP handler calls it, without the HTTP.
	srv, err := serve.New(serve.Config{Presets: r.presets, Scale: r.scale, Store: st})
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	resolve := func(q query, want string) (float64, error) {
		started := time.Now()
		ans, err := srv.Resolve(r.o.ctx, serve.Query{Topo: q.topo, Routing: q.alg.String(), Pattern: q.pat.String(), Load: q.load()})
		us := time.Since(started).Seconds() * 1e6
		if err == nil && ans.Tier != want {
			logf("in-process %s load %.4f answered from tier %q, want %q", q.topo, q.load(), ans.Tier, want)
			r.failed++
		}
		return us, err
	}
	var hitUS, coldUS []float64
	for _, q := range hitQs {
		us, err := resolve(q, serve.TierFluidCache)
		if err != nil {
			return err
		}
		hitUS = append(hitUS, us)
	}
	for i := 0; i < colds; i++ {
		q, ok := r.gen.cold()
		if !ok {
			break
		}
		us, err := resolve(q, serve.TierFluid)
		if err != nil {
			return err
		}
		coldUS = append(coldUS, us)
	}
	r.attempted += len(hitUS) + len(coldUS)
	v["serve.resolve_hit_us"] = median(hitUS)
	v["serve.resolve_cold_us"] = median(coldUS)
	return nil
}
