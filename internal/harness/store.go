package harness

import (
	"encoding/json"
	"time"

	"diam2/internal/buildinfo"
	"diam2/internal/sim"
	"diam2/internal/store"
)

// This file holds the content-addressed experiment store's side of the
// scheduler (see internal/store): canonicalKey derives a point's
// content address — a digest of the fully-resolved point configuration
// plus sim.EngineSchema — Lookup fetches and decodes a stored result,
// and record appends a computed one with its provenance. The
// scheduler's one executor (execute, scheduler.go) consults the store
// under a point's canonical key and only recomputes on a miss. Cache
// hits are ordinary (fast) points to the scheduler: their results land
// by submission index like any other, so a warm resume produces
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
// The fault fields are the plan's normal form, the one the run injects.
func (s Scale) pointConfig(pointKey string) store.PointConfig {
	f := s.faults()
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

		FailCount:      f.FailCount,
		FailFrac:       f.FailFrac,
		FailAt:         f.FailAt,
		MTBF:           f.MTBF,
		MTTR:           f.MTTR,
		RetxTimeout:    f.RetxTimeout,
		RebuildLatency: f.RebuildLatency,
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

// keyer returns canonicalKey(sc, ·) for the points of one sweep: the
// scale's part of the digest input is encoded once, so a point that
// pins no UGAL configuration costs one hash of its key string around
// it.
func keyer[T any](sc Scale) func(Point[T]) string {
	plain := sc.pointConfig("").Keyer()
	return func(p Point[T]) string {
		if p.UGAL != nil {
			return canonicalKey(sc, p)
		}
		return plain(p.Key)
	}
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

// lookupKey is Lookup under an already-derived canonical key: the
// executor derives a point's key once, not once per consultation (a second
// derivation per point shows in a 30 000-point screening sweep).
func lookupKey[T any](st *store.Store, key string) (v T, ok bool) {
	if rec, hit := st.Get(key); hit && json.Unmarshal(rec.Payload, &v) == nil {
		return v, true
	}
	var zero T
	return zero, false
}

// record appends a computed result under its canonical key, with its
// provenance: the point's seed, this build, the worker that ran it and
// the run's wall time since start. The result is encoded once, into
// its record's line.
func record[T any](sc *Scale, point, key string, seed int64, v T, start time.Time) error {
	worker := ""
	if sc.Sched.Campaign != nil {
		worker = sc.Sched.Campaign.Owner()
	}
	return store.PutValue(sc.Sched.Store, store.Record{
		Key:          key,
		Point:        point,
		Seed:         seed,
		BaseSeed:     sc.Seed,
		EngineSchema: sim.EngineSchema,
		Engine:       buildinfo.Version(),
		Tier:         sc.Tier,
		Worker:       worker,
		WallMS:       float64(time.Since(start)) / float64(time.Millisecond),
		Created:      time.Now().UTC().Format(time.RFC3339),
	}, v)
}
