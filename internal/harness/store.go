package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"diam2/internal/buildinfo"
	"diam2/internal/campaign"
	"diam2/internal/sim"
	"diam2/internal/store"
)

// This file wires the content-addressed experiment store (see
// internal/store) into the scheduler, in three pieces: canonicalKey
// derives a point's content address, Lookup fetches and decodes a
// stored result, and stored wraps a point so that it first consults
// the store under its canonical key — a digest of the fully-resolved
// point configuration plus sim.EngineSchema — and only recomputes on a
// miss; every computed result is appended with its provenance. Cache
// hits are ordinary (fast) points to the scheduler: they flow through
// the same in-order emit machinery, so a warm resume produces
// byte-identical figure output to a cold serial run. The payloads are
// JSON; Go's encoding round-trips float64 exactly, so rendered tables
// cannot drift between a computed and a replayed result.
//
// Telemetry interplay: a cache hit never runs an engine, so it cannot
// produce a telemetry bundle. Rather than emit sweeps whose telemetry
// silently covers a subset of points (and whose bundle set would
// depend on store state), a sweep with a telemetry sink attached
// bypasses store lookups entirely — every point recomputes, results
// are still recorded, and the sink sees exactly one bundle per point
// in the usual label order.

// pointConfig resolves the store configuration of one sweep point at
// this scale. Everything that can change the point's output is in the
// point key (topology, algorithm, pattern, per-point load or failure
// fraction), in these fields, or — for adaptive algorithms — in the
// point's pinned UGAL configuration (canonicalKey folds Point.UGAL in).
func (s Scale) pointConfig(pointKey string) store.PointConfig {
	cores := s.Cores
	if cores <= 1 {
		cores = 0 // 1 and unset are both one shard, one worker
	}
	return store.PointConfig{
		Point:        pointKey,
		EngineSchema: sim.EngineSchema,
		EngineCores:  cores,
		Tier:         s.Tier,
		BaseSeed:     s.Seed,
		PatternSeed:  s.patternSeed(),
		Cycles:       s.Cycles,
		Warmup:       s.Warmup,
		MaxDrain:     s.MaxDrain,
		A2APackets:   s.A2APackets,
		NNPackets:    s.NNPackets,
		Paper:        s.Paper,

		FailCount:      s.Faults.FailCount,
		FailFrac:       s.Faults.FailFrac,
		FailAt:         s.Faults.FailAt,
		MTBF:           s.Faults.MTBF,
		MTTR:           s.Faults.MTTR,
		RetxTimeout:    s.Faults.RetxTimeout,
		RebuildLatency: s.Faults.RebuildLatency,
	}
}

// canonicalKey is the only derivation of the content address a point
// stores under at a scale: the scale's resolved configuration plus the
// point's pinned UGAL configuration, if any.
func canonicalKey[T any](sc Scale, p Point[T]) string {
	cfg := sc.pointConfig(p.Key)
	if p.UGAL != nil {
		cfg.HasUGAL = true
		cfg.UGALNI = p.UGAL.NI
		cfg.UGALC = p.UGAL.C
		cfg.UGALCSF = p.UGAL.CSF
		cfg.UGALSFCost = p.UGAL.SFCost
		cfg.UGALThreshold = p.UGAL.Threshold
	}
	return cfg.Key()
}

// CanonicalPointKey is canonicalKey for a point that pins no UGAL
// configuration, by its scheduler key alone.
func (s Scale) CanonicalPointKey(pointKey string) string {
	return canonicalKey(s, Point[struct{}]{Key: pointKey})
}

// Lookup fetches the stored result of a point from sc.Sched.Store —
// what a sweep consults before recomputing, and how the query service
// recognizes already-answered points. It returns the point's canonical
// key either way. A payload that no longer decodes as T (the result
// type changed without an EngineSchema bump) is a miss: the caller
// recomputes and overwrites it.
func Lookup[T any](sc Scale, p Point[T]) (v T, key string, ok bool) {
	key = canonicalKey(sc, p)
	v, ok = lookupKey[T](sc.Sched.Store, key)
	return v, key, ok
}

// lookupKey is Lookup under an already-derived canonical key: stored
// derives a point's key once, not once per consultation (a second
// derivation per point shows in a 30 000-point screening sweep).
func lookupKey[T any](st *store.Store, key string) (v T, ok bool) {
	if rec, hit := st.Get(key); hit && json.Unmarshal(rec.Payload, &v) == nil {
		return v, true
	}
	var zero T
	return zero, false
}

// stored wraps a point with store consultation and recording. Lookups
// are skipped under -force and whenever telemetry is collecting (see
// the file comment); recording always happens. With Sched.Campaign set
// the same cached/attempt pair runs under the worker's multi-process
// lease/heartbeat/retry protocol instead of directly; a cache hit is
// indistinguishable from a computed result downstream either way, so a
// multi-worker campaign renders byte-identically to a cold
// single-process run.
func stored[T any](sc Scale, p Point[T]) Point[T] {
	st, w := sc.Sched.Store, sc.Sched.Campaign
	lookup := !sc.Sched.Force && sc.Telemetry.Sink == nil
	key := canonicalKey(sc, p)
	worker := ""
	if w != nil {
		worker = w.Owner()
	}
	out := p
	out.Run = func(ctx context.Context, seed int64) (res T, err error) {
		have := false
		cached := func() bool {
			if lookup {
				res, have = lookupKey[T](st, key)
			}
			return have
		}
		// attempt computes and records the result. Panics are captured
		// here so that a campaign retries and quarantines a poison
		// point instead of losing the pool to it.
		attempt := func(actx context.Context) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = &PanicError{Key: p.Key, Value: r, Stack: debug.Stack()}
				}
			}()
			start := time.Now()
			v, err := p.Run(actx, seed)
			if err != nil {
				return err
			}
			payload, err := json.Marshal(v)
			if err != nil {
				return err
			}
			err = st.Put(store.Record{
				Key:          key,
				Point:        p.Key,
				Seed:         seed,
				BaseSeed:     sc.Seed,
				EngineSchema: sim.EngineSchema,
				Engine:       buildinfo.Version(),
				Tier:         sc.Tier,
				Worker:       worker,
				WallMS:       float64(time.Since(start)) / float64(time.Millisecond),
				Created:      time.Now().UTC().Format(time.RFC3339),
				Payload:      payload,
			})
			if err == nil {
				res, have = v, true
			}
			return err
		}
		if w == nil {
			if !cached() {
				err = attempt(ctx)
			}
			return res, err
		}
		err = w.Execute(ctx, campaign.Task{Key: key, Point: p.Key, Attempt: attempt,
			// Other processes append to the shared store: refresh it
			// before calling a miss a miss.
			Cached: func() bool { return cached() || (lookup && st.Refresh() == nil && cached()) },
		})
		if err == nil && !have {
			// Execute succeeded without the attempt or a cache hit
			// producing a value; surface it rather than emitting a
			// zero value into a figure.
			err = fmt.Errorf("campaign: point %s finished without a result", p.Key)
		}
		return res, err
	}
	return out
}
