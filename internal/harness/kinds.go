package harness

import (
	"fmt"
	"strings"
)

// The evaluation grid's vocabulary (Section 4): routing strategy,
// synthetic pattern, closed-loop exchange. Each kind has one name
// table; String prints from it and the kind's Parse function reads it
// back ignoring case, so a CLI's -alg min, an HTTP query's MIN and a
// store payload's MIN all go through the same code.

// AlgKind selects a routing strategy for a run.
type AlgKind int

// Routing strategies of Section 3.
const (
	AlgMIN AlgKind = iota // oblivious minimal
	AlgINR                // oblivious indirect random (Valiant)
	AlgA                  // generic UGAL-L adaptive
	AlgATh                // UGAL-L with threshold (T = 10%)
)

// PatternKind selects the synthetic traffic pattern.
type PatternKind int

// Synthetic patterns of Section 4.3.
const (
	PatUNI PatternKind = iota // global uniform random
	PatWC                     // per-topology adversarial worst case
)

// ExchangeKind selects the Section 4.4 exchange.
type ExchangeKind int

// Exchange patterns.
const (
	ExA2A ExchangeKind = iota // all-to-all
	ExNN                      // 3-D torus nearest neighbor
)

// The name tables, indexed by the kind's value.
var (
	algNames      = []string{AlgMIN: "MIN", AlgINR: "INR", AlgA: "A", AlgATh: "ATh"}
	patternNames  = []string{PatUNI: "UNI", PatWC: "WC"}
	exchangeNames = []string{ExA2A: "A2A", ExNN: "NN"}
)

func kindName(names []string, k int) string {
	if k >= 0 && k < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// parseKind finds s in names ignoring case; what names the kind in the
// error ("algorithm").
func parseKind[K ~int](what string, names []string, s string) (K, error) {
	for k, name := range names {
		if strings.EqualFold(name, s) {
			return K(k), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", what, s)
}

// String implements fmt.Stringer.
func (a AlgKind) String() string { return kindName(algNames, int(a)) }

// String implements fmt.Stringer.
func (p PatternKind) String() string { return kindName(patternNames, int(p)) }

// String implements fmt.Stringer.
func (e ExchangeKind) String() string { return kindName(exchangeNames, int(e)) }

// ParseAlg inverts AlgKind.String, ignoring case.
func ParseAlg(s string) (AlgKind, error) { return parseKind[AlgKind]("algorithm", algNames, s) }

// ParsePattern inverts PatternKind.String, ignoring case.
func ParsePattern(s string) (PatternKind, error) {
	return parseKind[PatternKind]("pattern", patternNames, s)
}

// ParseExchange inverts ExchangeKind.String, ignoring case.
func ParseExchange(s string) (ExchangeKind, error) {
	return parseKind[ExchangeKind]("exchange", exchangeNames, s)
}

// MarshalText and UnmarshalText make the kinds that appear in store
// payloads and HTTP answers (ScreenPoint) travel as their names.

// MarshalText implements encoding.TextMarshaler.
func (a AlgKind) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *AlgKind) UnmarshalText(b []byte) (err error) {
	*a, err = ParseAlg(string(b))
	return err
}

// MarshalText implements encoding.TextMarshaler.
func (p PatternKind) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *PatternKind) UnmarshalText(b []byte) (err error) {
	*p, err = ParsePattern(string(b))
	return err
}

// usesUGAL reports whether the kind consumes the UGALConfig — and so
// whether a sweep point must pin the resolved configuration in its
// canonical store key (Point.UGAL).
func (a AlgKind) usesUGAL() bool { return a == AlgA || a == AlgATh }
