package harness

import "testing"

// Degenerate inputs the escalation policy must survive without
// panicking or over-picking: empty sweeps, one-load ladders, screened
// points whose fluid model failed (zero saturation), and bands so wide
// they swallow the whole grid.

func TestSelectEscalationsEmptySweep(t *testing.T) {
	if picks := SelectEscalations(nil, 0.15); len(picks) != 0 {
		t.Fatalf("empty sweep picked %d points", len(picks))
	}
	if picks := SelectEscalations([]ScreenPoint{}, 0.15); len(picks) != 0 {
		t.Fatalf("zero-length sweep picked %d points", len(picks))
	}
}

// TestSelectEscalationsSingleLoadLadder: each point is judged alone,
// so of two topologies screened at one load only the one whose band
// covers it is picked.
func TestSelectEscalationsSingleLoadLadder(t *testing.T) {
	points := []ScreenPoint{
		screenPt("A(1)", "A", "MIN", "UNI", 0.5, 0.9, 0.5),
		screenPt("B(1)", "B", "MIN", "UNI", 0.5, 0.8, 0.5),
	}
	// The band covers load 0.5 of the B topology (|0.5-0.8| <= 0.4*0.8)
	// and not of the A topology (|0.5-0.9| > 0.4*0.9).
	picks := SelectEscalations(points, 0.4)
	if len(picks) != 1 || picks[0].Point.Topo != "B(1)" {
		t.Fatalf("picks = %+v, want the B(1) band point only", picks)
	}
	if len(picks[0].Reasons) != 1 || picks[0].Reasons[0] != ReasonBand {
		t.Fatalf("reasons = %v, want [band]", picks[0].Reasons)
	}
}

// TestSelectEscalationsZeroSaturation: a screened point whose fluid
// model degenerated (saturation 0 — e.g. no cross-router flow) can
// never be band-picked; the band test would otherwise divide the grid
// by zero conceptually and pick everything below it.
func TestSelectEscalationsZeroSaturation(t *testing.T) {
	points := []ScreenPoint{
		screenPt("A(1)", "A", "MIN", "UNI", 0.1, 0, 0),
		screenPt("A(1)", "A", "MIN", "UNI", 0.9, 0, 0),
	}
	if picks := SelectEscalations(points, 100); len(picks) != 0 {
		t.Fatalf("zero-saturation points picked: %+v", picks)
	}
}

// TestSelectEscalationsBandWiderThanGrid: a band wide enough to cover
// every load picks the whole grid — once each, input order preserved,
// no duplicated reasons.
func TestSelectEscalationsBandWiderThanGrid(t *testing.T) {
	points := []ScreenPoint{
		screenPt("A(1)", "A", "MIN", "UNI", 0.1, 0.5, 0.1),
		screenPt("A(1)", "A", "MIN", "UNI", 0.5, 0.5, 0.5),
		screenPt("A(1)", "A", "MIN", "UNI", 0.9, 0.5, 0.5),
	}
	picks := SelectEscalations(points, 10)
	if len(picks) != len(points) {
		t.Fatalf("band 10 picked %d of %d points", len(picks), len(points))
	}
	for i, pk := range picks {
		if pk.Point != points[i] {
			t.Errorf("pick %d is %+v, want input order preserved", i, pk.Point)
		}
		if len(pk.Reasons) != 1 || pk.Reasons[0] != ReasonBand {
			t.Errorf("pick %d reasons = %v, want [band] once", i, pk.Reasons)
		}
	}
}
