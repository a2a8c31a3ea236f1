package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func baseConfig() PointConfig {
	return PointConfig{
		Point:          "fig6|SF(q=13,p=9)|MIN|UNI|load=0.5000",
		EngineSchema:   1,
		BaseSeed:       1,
		PatternSeed:    7,
		Cycles:         20000,
		Warmup:         5000,
		MaxDrain:       2000000,
		A2APackets:     4,
		NNPackets:      64,
		Paper:          false,
		FailCount:      0,
		FailFrac:       0,
		FailAt:         0,
		MTBF:           0,
		MTTR:           0,
		RetxTimeout:    0,
		RebuildLatency: 0,
	}
}

// fullConfig sets every field, with the values that exercise each
// formatter: the fluid tier, EngineCores, negative seeds (one the
// int64 minimum), HasUGAL and non-integral UGAL floats.
func fullConfig() PointConfig {
	return PointConfig{
		Point:          "screen|SF(q=5,p=3)|INR|WC|load=0.2500",
		EngineSchema:   1,
		EngineCores:    2,
		Tier:           TierFluid,
		BaseSeed:       -3,
		PatternSeed:    math.MinInt64,
		Cycles:         16000,
		Warmup:         3000,
		MaxDrain:       8000000,
		A2APackets:     2,
		NNPackets:      8,
		Paper:          true,
		FailCount:      3,
		FailFrac:       0.0125,
		FailAt:         1000,
		MTBF:           500000,
		MTTR:           20000,
		RetxTimeout:    512,
		RebuildLatency: 64,
		HasUGAL:        true,
		UGALNI:         4,
		UGALC:          1.5,
		UGALCSF:        1.0 / 3,
		UGALSFCost:     true,
		UGALThreshold:  1e-7,
	}
}

// fprintfKey is the canonical encoder as first written, one
// fmt.Fprintf per field straight into the hash. It is the oracle Key's
// encoding must reproduce byte for byte.
func fprintfKey(c PointConfig) string {
	h := sha256.New()
	field := func(name, value string) {
		fmt.Fprintf(h, "%d:%s=%d:%s;", len(name), name, len(value), value)
	}
	field("canon", strconv.Itoa(CanonVersion))
	field("point", c.Point)
	field("engine", strconv.Itoa(c.EngineSchema))
	field("engine-cores", strconv.Itoa(c.EngineCores))
	field("tier", c.Tier)
	field("seed", strconv.FormatInt(c.BaseSeed, 10))
	field("pattern-seed", strconv.FormatInt(c.PatternSeed, 10))
	field("cycles", strconv.FormatInt(c.Cycles, 10))
	field("warmup", strconv.FormatInt(c.Warmup, 10))
	field("max-drain", strconv.FormatInt(c.MaxDrain, 10))
	field("a2a", strconv.Itoa(c.A2APackets))
	field("nn", strconv.Itoa(c.NNPackets))
	field("paper", strconv.FormatBool(c.Paper))
	field("fail-count", strconv.Itoa(c.FailCount))
	field("fail-frac", strconv.FormatFloat(c.FailFrac, 'g', -1, 64))
	field("fail-at", strconv.FormatInt(c.FailAt, 10))
	field("mtbf", strconv.FormatInt(c.MTBF, 10))
	field("mttr", strconv.FormatInt(c.MTTR, 10))
	field("retx-timeout", strconv.Itoa(c.RetxTimeout))
	field("rebuild-latency", strconv.Itoa(c.RebuildLatency))
	field("has-ugal", strconv.FormatBool(c.HasUGAL))
	field("ugal-ni", strconv.Itoa(c.UGALNI))
	field("ugal-c", strconv.FormatFloat(c.UGALC, 'g', -1, 64))
	field("ugal-csf", strconv.FormatFloat(c.UGALCSF, 'g', -1, 64))
	field("ugal-sfcost", strconv.FormatBool(c.UGALSFCost))
	field("ugal-threshold", strconv.FormatFloat(c.UGALThreshold, 'g', -1, 64))
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeyStable pins the canonical digest: any change to the field
// encoding, field order, or float formatting breaks this test, which
// is the point — such a change silently invalidates every existing
// store, and must instead be expressed as a CanonVersion bump. The
// literals were recorded under CanonVersion 4.
func TestKeyStable(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  PointConfig
		want string
	}{
		{"base", baseConfig(), "bfb70a56340eec122db39259c3bf6434c453b9a8977bca32aebe117a057bfe00"},
		{"full", fullConfig(), "af7625fff6f21973b981dc316a96c88d61d69bcffe82ae353acf280a78db6f06"},
	} {
		got := c.cfg.Key()
		if len(got) != 64 || strings.ToLower(got) != got {
			t.Fatalf("%s: key is not lowercase hex sha256: %q", c.name, got)
		}
		if got != c.want {
			t.Errorf("%s: key %s, pinned %s", c.name, got, c.want)
		}
		if oracle := fprintfKey(c.cfg); got != oracle {
			t.Errorf("%s: key %s, Fprintf encoding %s", c.name, got, oracle)
		}
	}
}

// TestKeyDistinct flips every field one at a time: each must reach the
// digest, or two materially different experiment points would collide.
func TestKeyDistinct(t *testing.T) {
	base := baseConfig().Key()
	muts := map[string]func(*PointConfig){
		"Point":          func(c *PointConfig) { c.Point += "x" },
		"EngineSchema":   func(c *PointConfig) { c.EngineSchema++ },
		"EngineCores":    func(c *PointConfig) { c.EngineCores = 4 },
		"Tier":           func(c *PointConfig) { c.Tier = TierFluid },
		"BaseSeed":       func(c *PointConfig) { c.BaseSeed++ },
		"PatternSeed":    func(c *PointConfig) { c.PatternSeed++ },
		"Cycles":         func(c *PointConfig) { c.Cycles++ },
		"Warmup":         func(c *PointConfig) { c.Warmup++ },
		"MaxDrain":       func(c *PointConfig) { c.MaxDrain++ },
		"A2APackets":     func(c *PointConfig) { c.A2APackets++ },
		"NNPackets":      func(c *PointConfig) { c.NNPackets++ },
		"Paper":          func(c *PointConfig) { c.Paper = true },
		"FailCount":      func(c *PointConfig) { c.FailCount = 3 },
		"FailFrac":       func(c *PointConfig) { c.FailFrac = 0.01 },
		"FailAt":         func(c *PointConfig) { c.FailAt = 100 },
		"MTBF":           func(c *PointConfig) { c.MTBF = 1e6 },
		"MTTR":           func(c *PointConfig) { c.MTTR = 1e4 },
		"RetxTimeout":    func(c *PointConfig) { c.RetxTimeout = 512 },
		"RebuildLatency": func(c *PointConfig) { c.RebuildLatency = 64 },
		"HasUGAL":        func(c *PointConfig) { c.HasUGAL = true },
		"UGALNI":         func(c *PointConfig) { c.HasUGAL = true; c.UGALNI = 4 },
		"UGALC":          func(c *PointConfig) { c.HasUGAL = true; c.UGALC = 2 },
		"UGALCSF":        func(c *PointConfig) { c.HasUGAL = true; c.UGALCSF = 1 },
		"UGALSFCost":     func(c *PointConfig) { c.HasUGAL = true; c.UGALSFCost = true },
		"UGALThreshold":  func(c *PointConfig) { c.HasUGAL = true; c.UGALThreshold = 0.1 },
	}
	seen := map[string]string{base: "base"}
	for name, mut := range muts {
		c := baseConfig()
		mut(&c)
		k := c.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyInjectionResistant: the length-prefixed encoding means a
// point string that embeds the framing characters cannot imitate a
// different config's digest input.
func TestKeyInjectionResistant(t *testing.T) {
	a := baseConfig()
	a.Point = "fig6|SF"
	b := baseConfig()
	// Try to smuggle the serialized form of a's trailing fields into
	// the point string itself.
	b.Point = "fig6|SF;13:engine_schema=1:1"
	if a.Key() == b.Key() {
		t.Fatal("delimiter injection produced a key collision")
	}
	c := baseConfig()
	c.Point = "fig6|SF\x00extra"
	if c.Key() == a.Key() {
		t.Fatal("NUL-extended point string collides")
	}
}

func TestShortKey(t *testing.T) {
	k := baseConfig().Key()
	if s := ShortKey(k); s != k[:12] {
		t.Fatalf("ShortKey = %q", s)
	}
	if s := ShortKey("abc"); s != "abc" {
		t.Fatalf("ShortKey on short input = %q", s)
	}
}

// TestKeyAllocs: a key costs one allocation, its string, whether from
// Key or from a Keyer: the encoding and the hash stay on the stack.
func TestKeyAllocs(t *testing.T) {
	c := fullConfig()
	keyer := c.Keyer()
	for name, key := range map[string]func() string{"Key": c.Key, "Keyer": func() string { return keyer(c.Point) }} {
		if avg := testing.AllocsPerRun(100, func() { _ = key() }); avg > 1 {
			t.Errorf("%s allocates %v times per key, want 1", name, avg)
		}
	}
}
