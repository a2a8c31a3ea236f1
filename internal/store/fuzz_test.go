package store

import "testing"

// FuzzCanonicalKey checks the two properties resumability rests on:
// the key is a pure function of the config (stable), and distinct
// configs never share a key via delimiter games in the point string.
// The encoding is length-prefixed specifically so that no choice of
// point bytes can imitate another config's serialized form.
func FuzzCanonicalKey(f *testing.F) {
	f.Add("fig6|SF(q=13,p=9)|MIN|UNI|load=0.5000", "fig6|SF(q=13,p=9)|MIN|UNI|load=0.6000", int64(1), int64(20000))
	f.Add("", "x", int64(0), int64(0))
	f.Add("a;b=c", "a", int64(-1), int64(1<<40))
	f.Add("13:point=4:figx", "13:point=4:fig", int64(7), int64(7))
	f.Fuzz(func(t *testing.T, pointA, pointB string, seed, cycles int64) {
		a := PointConfig{Point: pointA, EngineSchema: 1, BaseSeed: seed, Cycles: cycles}
		b := a
		b.Point = pointB

		ka, kb := a.Key(), b.Key()
		if len(ka) != 64 {
			t.Fatalf("key length %d, want 64 hex chars", len(ka))
		}
		// The bytes hashed must be the original Fprintf encoding's.
		full := fullConfig()
		full.Point, full.BaseSeed, full.Cycles = pointA, seed, cycles
		for _, c := range []PointConfig{a, b, full} {
			if got, want := c.Key(), fprintfKey(c); got != want {
				t.Fatalf("point %q: key %s, Fprintf encoding %s", c.Point, got, want)
			}
		}
		if ka != a.Key() {
			t.Fatal("key not deterministic for identical config")
		}
		if (pointA == pointB) != (ka == kb) {
			t.Fatalf("point strings %q vs %q: equal-keys=%v, want %v",
				pointA, pointB, ka == kb, pointA == pointB)
		}

		// Moving information between fields must always change the key:
		// appending to the point while reverting the seed cannot cancel.
		c := a
		c.Point = pointA + ";"
		if c.Key() == ka {
			t.Fatal("appending a delimiter to the point string did not change the key")
		}
		d := a
		d.BaseSeed = seed + 1
		if d.Key() == ka {
			t.Fatal("changing the seed did not change the key")
		}
		// Result tiers must never alias: an analytic (fluid) result and
		// a simulated one for the same point are different records, and
		// no point string can fake the tier field's serialized form.
		e := a
		e.Tier = TierFluid
		if e.Key() == ka {
			t.Fatal("setting the fluid tier did not change the key")
		}
		f2 := a
		f2.Point = pointA + TierFluid
		if f2.Key() == e.Key() {
			t.Fatal("tier content smuggled via the point string collides with the fluid tier")
		}
	})
}
