// Package store is the content-addressed experiment result store: a
// crash-safe, append-only archive of completed sweep points keyed by a
// digest of their fully-resolved configuration. diam2sweep -store DIR
// resumes an interrupted campaign by recomputing only the points whose
// keys are missing; diam2store lists, verifies, diffs and
// garbage-collects stores.
//
// On disk a store is a directory of checksummed JSONL segments plus a
// manifest and an index, both replaced atomically via tmp+rename. Every
// record line carries its own CRC, so a SIGKILL at any instant leaves a
// store that reopens cleanly: a torn tail record fails its checksum and
// is skipped (and logged), never trusted. Writers always start a fresh
// segment, so an earlier torn tail can never corrupt later appends.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// CanonVersion identifies the key-canonicalization scheme. Bumping it
// invalidates every stored result, so bump only when the encoding
// below changes. Version 2 added the resolved adaptive-routing
// configuration (the UGAL* fields): CLIs can override nI and the cost
// constant without changing any point key string, so version-1 keys
// could collide across materially different adaptive runs. Version 3
// added EngineCores: the sharded engine's results follow their own
// determinism contract but are not bit-identical to the serial
// engine's, so a -cores run must never satisfy a serial lookup (or
// vice versa). Version 4 added Tier: analytic (fluid-model) screening
// results and flit-level simulator results answer the same point keys
// with entirely different fidelity, so they must never alias in the
// store.
const CanonVersion = 4

// Result tiers. The tier names the producer of a record's payload:
// the flit-level discrete-event simulator (the default, encoded as the
// empty string so pre-screening configurations keep their natural zero
// value) or the analytic fluid model, which answers the same point
// keys in microseconds at screening fidelity.
const (
	TierSim   = ""      // flit-level simulation (default)
	TierFluid = "fluid" // analytic fluid-model screening estimate
)

// PointConfig is the fully-resolved configuration of one sweep point —
// everything that determines its simulation output. The sweep point key
// already encodes the per-point axes (topology, algorithm, pattern,
// load, failure fraction); the remaining fields pin the scale and
// engine semantics the point ran under, so a result is reused only for
// a bit-identical rerun.
type PointConfig struct {
	Point        string // scheduler point key, e.g. "fig6|SF(q=5,p=4)|MIN|UNI|load=0.5000"
	EngineSchema int    // sim.EngineSchema the result was produced under
	EngineCores  int    // sharded-engine partition/worker count; 0 = serial (1 normalizes to 0)
	Tier         string // result tier: TierSim (flit-level) or TierFluid (analytic screening)

	BaseSeed    int64 // sweep base seed (per-point seeds derive from it)
	PatternSeed int64 // resolved traffic-structure seed

	Cycles     int64
	Warmup     int64
	MaxDrain   int64
	A2APackets int
	NNPackets  int
	Paper      bool

	// Fault plan (zero value: no injection).
	FailCount      int
	FailFrac       float64
	FailAt         int64
	MTBF           int64
	MTTR           int64
	RetxTimeout    int
	RebuildLatency int

	// Resolved adaptive-routing configuration, set (HasUGAL) for
	// points that run a UGAL-family algorithm. The point key string
	// names the algorithm kind but not these knobs, and CLIs let users
	// override them without changing the key, so they must reach the
	// digest. HasUGAL keeps a pinned all-zero configuration distinct
	// from an oblivious point that pins nothing.
	HasUGAL       bool
	UGALNI        int
	UGALC         float64
	UGALCSF       float64
	UGALSFCost    bool
	UGALThreshold float64
}

// Key returns the canonical content address of the configuration: a
// SHA-256 over a length-prefixed field encoding. Length prefixes make
// the encoding injective — no choice of Point string (embedded NULs,
// field-separator look-alikes) can collide with a different
// configuration. The fields are appended into one buffer and hashed
// once.
func (c PointConfig) Key() string {
	var buf [512]byte // the fields after the point fit: no heap buffer
	return digest(c.Point, c.appendTail(buf[:0]))
}

// Keyer returns Key as a function of the point string: c's other
// fields are encoded once, and each call hashes them around the point
// it is given, so Keyer()(p) is Key() with Point = p.
func (c PointConfig) Keyer() func(point string) string {
	tail := c.appendTail(nil)
	return func(point string) string { return digest(point, tail) }
}

// canonField is the encoding's first field, the one before the point.
var canonField = string(field(nil, "canon", strconv.Itoa(CanonVersion)))

// digest hashes the canon field, the point field and the encoded tail,
// the fields after the point.
func digest(point string, tail []byte) string {
	var buf [640]byte // a sweep point's encoding fits: no regrowth
	b := append(buf[:0], canonField...)
	b = field(b, "point", point)
	sum := sha256.Sum256(append(b, tail...))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendTail appends the fields after the point to b.
func (c PointConfig) appendTail(b []byte) []byte {
	var num [32]byte // one formatted numeric value
	i := func(name string, v int64) { b = field(b, name, strconv.AppendInt(num[:0], v, 10)) }
	f := func(name string, v float64) { b = field(b, name, strconv.AppendFloat(num[:0], v, 'g', -1, 64)) }
	t := func(name string, v bool) { b = field(b, name, strconv.AppendBool(num[:0], v)) }
	i("engine", int64(c.EngineSchema))
	i("engine-cores", int64(c.EngineCores))
	b = field(b, "tier", c.Tier)
	i("seed", c.BaseSeed)
	i("pattern-seed", c.PatternSeed)
	i("cycles", c.Cycles)
	i("warmup", c.Warmup)
	i("max-drain", c.MaxDrain)
	i("a2a", int64(c.A2APackets))
	i("nn", int64(c.NNPackets))
	t("paper", c.Paper)
	i("fail-count", int64(c.FailCount))
	f("fail-frac", c.FailFrac)
	i("fail-at", c.FailAt)
	i("mtbf", c.MTBF)
	i("mttr", c.MTTR)
	i("retx-timeout", int64(c.RetxTimeout))
	i("rebuild-latency", int64(c.RebuildLatency))
	t("has-ugal", c.HasUGAL)
	i("ugal-ni", int64(c.UGALNI))
	f("ugal-c", c.UGALC)
	f("ugal-csf", c.UGALCSF)
	t("ugal-sfcost", c.UGALSFCost)
	f("ugal-threshold", c.UGALThreshold)
	return b
}

// field appends one length-prefixed name/value pair,
// "len(name):name=len(value):value;", to the digest input.
func field[V string | []byte](b []byte, name string, value V) []byte {
	b = strconv.AppendInt(b, int64(len(name)), 10)
	b = append(b, ':')
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(len(value)), 10)
	b = append(b, ':')
	b = append(b, value...)
	return append(b, ';')
}

// ShortKey abbreviates a canonical key for display.
func ShortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
