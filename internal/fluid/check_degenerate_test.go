package fluid

import (
	"errors"
	"testing"

	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// TestCheckCached: the connectivity scan runs once at New; repeated
// Check calls return the identical (cached) verdict, so screening
// loops can call it per point without re-scanning the graph.
func TestCheckCached(t *testing.T) {
	bad := New(disconnectedTopo{})
	first, second := bad.Check(), bad.Check()
	if !errors.Is(first, ErrDisconnected) || first != second {
		t.Errorf("Check not cached: first %v, second %v", first, second)
	}

	tp, err := topo.NewOFT(4)
	if err != nil {
		t.Fatal(err)
	}
	good := New(tp)
	if err := good.Check(); err != nil {
		t.Errorf("Check on OFT(4) = %v, want nil", err)
	}
	if err := good.Check(); err != nil {
		t.Errorf("second Check on OFT(4) = %v, want nil", err)
	}
}

// TestPermutationLengthMismatch: a permutation covering the wrong node
// count is an error from the demand constructor, so neither routing
// model ever sees a partial load map.
func TestPermutationLengthMismatch(t *testing.T) {
	tp, err := topo.NewMLFM(4)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tp)
	for _, perm := range [][]int{{0}, make([]int, tp.Nodes()+1)} {
		if _, err := m.Permutation(traffic.Permutation{Perm: perm}); err == nil {
			t.Errorf("Permutation accepted a %d-node permutation of %d nodes", len(perm), tp.Nodes())
		}
	}
}

// TestEmptyLinkLoads: the load aggregates on no load — what a
// degenerate pattern with no cross-router flow produces — degrade to
// the identity values instead of dividing by zero: no load anywhere,
// saturation capped at 1 (no link ever exceeds injection rate).
func TestEmptyLinkLoads(t *testing.T) {
	var l LinkLoads
	if s := l.Sum(); s != 0 {
		t.Errorf("empty Sum = %v", s)
	}
	if m := l.MaxLoad(); m != 0 {
		t.Errorf("empty MaxLoad = %v", m)
	}
	if s := l.Saturation(); s != 1 {
		t.Errorf("empty Saturation = %v, want 1 (never saturates)", s)
	}
	if a := l.At(0, 1); a != 0 {
		t.Errorf("empty At = %v", a)
	}
}
