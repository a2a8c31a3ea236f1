package sim_test

import (
	"math"
	"strings"
	"testing"

	"diam2/internal/sim"
	"diam2/internal/topo"
)

// fatRouterTopo hangs extra nodes off router 0 of a real topology, and
// claims a node total of its own, to take a router's port count and the
// machine's node count out of range without building anything large.
type fatRouterTopo struct {
	topo.Topology
	router0 []int
	nodes   int
}

func (f fatRouterTopo) Nodes() int { return f.nodes }

func (f fatRouterTopo) RouterNodes(r int) []int {
	if r == 0 && f.router0 != nil {
		return f.router0
	}
	return f.Topology.RouterNodes(r)
}

// TestNewNetworkRejectsOutOfRange: the hot state keeps ports, VCs,
// node and router ids, flit counters and packet handles in int16 and
// int32 fields. A topology or configuration that does not fit must be
// refused by NewNetwork — one over-range value per field here — and
// not wrap silently in the middle of a run.
func TestNewNetworkRejectsOutOfRange(t *testing.T) {
	tp := mustMLFM(t, 3)
	base := sim.TestConfig(2)
	if _, err := sim.NewNetwork(tp, base); err != nil {
		t.Fatalf("in-range configuration refused: %v", err)
	}
	with := func(edit func(*sim.Config)) sim.Config {
		cfg := base
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		tp   topo.Topology
		cfg  sim.Config
		want string
	}{
		{"VCs beyond entry.outVC", tp, with(func(c *sim.Config) { c.NumVCs = math.MaxInt16 + 1 }), "NumVCs"},
		{"ports beyond entry.outPort", fatRouterTopo{Topology: tp, router0: make([]int, math.MaxInt16), nodes: tp.Nodes()}, base, "ports"},
		{"nodes beyond Packet.Src", fatRouterTopo{Topology: tp, nodes: math.MaxInt32 + 1}, base, "nodes"},
		{"input buffer beyond the flit counters", tp, with(func(c *sim.Config) { c.InputBufFlits = math.MaxInt32 }), "InputBufFlits"},
		{"output buffer beyond the flit counters", tp, with(func(c *sim.Config) { c.OutputBufFlits = math.MaxInt32 }), "OutputBufFlits"},
		{"source queue beyond queue.n", tp, with(func(c *sim.Config) { c.SourceQueueCap = math.MaxInt32 + 1 }), "SourceQueueCap"},
		{"packets beyond pktHandle", tp, with(func(c *sim.Config) { c.SourceQueueCap = 1 << 26 }), "packet handles"},
	}
	for _, c := range cases {
		if _, err := sim.NewNetwork(c.tp, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewNetwork returned %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
