package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzCanonicalKey checks the two properties resumability rests on:
// the key is a pure function of the config (stable), and distinct
// configs never share a key via delimiter games in the point string;
// and that Keyer, which sweeps use, hashes what Key does.
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
			// A Keyer built with any point answers for every other.
			other := c
			other.Point = pointB + pointA
			if got, want := other.Keyer()(c.Point), c.Key(); got != want {
				t.Fatalf("point %q: Keyer gives %s, Key %s", c.Point, got, want)
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

// Real record bodies, as the reflection encoder wrote them: a fluid-tier
// ScreenPoint and an escalated, simulated LoadPoint.
const (
	screenBody = `{"key":"ba5f291582e4bd8856e01fbc9c26ef804bc09eb4414add3e7d85b69a16f064c5","point":"screen|SF(q=5,p=3)|MIN|UNI|load=0.2000","seed":-4132774891191034522,"base_seed":1,"engine_schema":1,"store_schema":1,"engine":"v0.0.0-20261017124640-e33c9e38faa0+dirty","tier":"fluid","wall_ms":1.678456,"created":"2026-10-17T14:06:58Z","payload":{"Topo":"SF(q=5,p=3)","Family":"SF","Alg":"MIN","Pat":"UNI","Load":0.2,"Saturation":1,"MaxLinkLoad":0.7852348993288593,"AvgHops":1.857142857142855,"Throughput":0.2,"AvgLatency":13.691992720655138}}`
	loadBody   = `{"key":"c138074b24296c271ed6525603e8ca22b6177ff4456b12566b431fb3a1f4f914","point":"escalate|MLFM(h=6)|MIN|UNI|load=1.0000","seed":-4631491008721210580,"base_seed":1,"engine_schema":1,"store_schema":1,"engine":"v0.0.0-20261017124640-e33c9e38faa0+dirty","wall_ms":1300.004417,"created":"2026-10-17T14:08:49Z","payload":{"Load":1,"Throughput":0.8937680097680097,"AvgLatency":234.90483825135394}}`
)

// fuzzPayload is a typed result for FuzzRecordCodec: strings that need
// escaping, and floats json.Marshal refuses when they are not finite.
type fuzzPayload struct {
	Topo  string
	Note  string `json:"note,omitempty"`
	Load  float64
	Ratio float32
}

// FuzzRecordCodec holds the codec to encoding/json and fmt, which
// framed every existing store. appendLine must produce byte for byte
// the line json.Marshal framed by Sprintf does (or fail where it
// fails), whether its payload is raw JSON or a typed value encoded in
// place, and the payload bytes it reports must be the ones json.Unmarshal
// reads back from the line; the real record bodies must decode without
// falling back; and whenever parseRecord accepts a body — the
// encoder's or an arbitrary one — its record must equal json.Unmarshal's.
func FuzzRecordCodec(f *testing.F) {
	for _, body := range []string{screenBody, loadBody} {
		var rec Record
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			f.Fatal(err)
		}
		if _, ok := parseRecord([]byte(body)); !ok {
			f.Fatalf("parseRecord fell back on a body json.Marshal wrote: %s", body)
		}
		f.Add(rec.Key, rec.Point, rec.Seed, rec.BaseSeed, rec.EngineSchema, rec.Engine, rec.Tier, rec.Worker,
			rec.WallMS, rec.Created, []byte(rec.Payload), []byte(body), "SF(q=5,p=3)", 0.2)
	}
	f.Add("k", "p<&> \x01é\xff", int64(-1), int64(0), 7, "e\"\\", "fluid", "w1", 1e-7, "c", []byte(`{"a": "<b> "}`), []byte(`{"key":"k" }`),
		"<&>\"\\\x00\u2028é\xff", math.Inf(-1))
	f.Add("", "", int64(0), int64(0), 0, "", "", "", 1e21, "", []byte(nil), []byte(`{"key":"k","point":"p","seed":01}`), "", math.NaN())
	f.Add("k", "p", int64(1), int64(2), 3, "e", "", "", math.Copysign(0, -1), "c", []byte(` 1 `), []byte(strings.Replace(loadBody, `"wall_ms":1300.004417`, `"wall_ms":1.3e3`, 1)),
		"t", 1e300)
	// Near misses of the fast decoder's shape, and a payload whose only
	// escape is U+2028.
	for _, edit := range [][2]string{{`"payload":{`, `"payload": {`}, {`}}`, `} }`}, {`"base_seed":1`, `"base_seed":01`},
		{`"seed":-4132774891191034522`, `"seed":-4132774891191034522.0`}, {`"engine_schema":1`, `"engine_schema":1e0`}, {`"tier":"fluid"`, `"tier":"fl\u0075id"`},
		{`"wall_ms":1.678456`, `"wall_ms":1.`}, {`"wall_ms":1.678456`, `"wall_ms":-.5`}, {`"wall_ms":1.678456`, `"wall_ms":1e+`}, {`"wall_ms":1.678456`, `"wall_ms":1E-2`}} {
		f.Add("k", "p", int64(1), int64(2), 3, "e", "", "", 1.5, "c", []byte("[\"\u2028\"]"), []byte(strings.Replace(screenBody, edit[0], edit[1], 1)),
			"\u2028", -0.5)
	}
	f.Fuzz(func(t *testing.T, key, point string, seed, baseSeed int64, engineSchema int, engine, tier, worker string,
		wall float64, created string, payload, body []byte, topo string, load float64) {
		rec := Record{Key: key, Point: point, Seed: seed, BaseSeed: baseSeed, EngineSchema: engineSchema,
			StoreSchema: Schema, Engine: engine, Tier: tier, Worker: worker, WallMS: wall, Created: created}
		if len(payload) > 0 {
			rec.Payload = payload
		}
		want, werr := json.Marshal(rec)
		checkLine(t, rec, rec.Payload, want, werr)
		typed, withTyped := fuzzPayload{Topo: topo, Note: point, Load: load, Ratio: float32(load)}, rec
		if withTyped.Payload, werr = json.Marshal(typed); werr == nil {
			want, werr = json.Marshal(withTyped)
		}
		checkLine(t, rec, typed, want, werr)
		checkDecode(t, body)
	})
}

// checkLine fails when appendLine, given rec and the payload v, does
// not write want (json.Marshal's body, or werr where it refuses) framed
// by Sprintf, or does not report the payload the line holds.
func checkLine[T any](t *testing.T, rec Record, v T, want []byte, werr error) {
	line, got, err := appendLine(nil, &rec, v)
	if werr != nil {
		if err == nil {
			t.Fatalf("appendLine accepted a record json.Marshal refuses (%v): %q", werr, line)
		}
		return
	}
	if err != nil {
		t.Fatalf("appendLine: %v, but json.Marshal encodes %s", err, want)
	}
	if wantLine := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(want), want); string(line) != wantLine {
		t.Fatalf("appendLine wrote\n%q\nwant\n%q", line, wantLine)
	}
	var back Record
	if err := json.Unmarshal(line[9:], &back); err != nil || !bytes.Equal(got, back.Payload) {
		t.Fatalf("appendLine reported payload %q, the line holds %q (%v)", got, back.Payload, err)
	}
	checkDecode(t, line[9:len(line)-1])
}

// checkDecode fails when parseRecord accepts body but disagrees with
// json.Unmarshal.
func checkDecode(t *testing.T, body []byte) {
	got, ok := parseRecord(body)
	if !ok {
		return
	}
	var want Record
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("parseRecord accepted %q, which json.Unmarshal rejects: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseRecord(%q) =\n%+v\njson.Unmarshal gives\n%+v", body, got, want)
	}
}
