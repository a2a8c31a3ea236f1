package routing_test

import (
	"testing"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// TestRoutingDeterministic: every routing algorithm of the package,
// run twice on the same seeded open-loop point, gives identical
// Results. A decision that depends on anything but the engine's rng
// (map iteration order, say) fails here.
func TestRoutingDeterministic(t *testing.T) {
	sf, oft := mustSF(t, 5), mustOFT(t, 4)
	cases := []struct {
		name string
		tp   topo.Topology
		mk   func() (sim.RoutingAlgorithm, error)
	}{
		{"MIN", oft, func() (sim.RoutingAlgorithm, error) { return routing.NewMinimal(oft), nil }},
		{"INR", oft, func() (sim.RoutingAlgorithm, error) { return routing.NewValiant(oft), nil }},
		{"UGAL-A", oft, func() (sim.RoutingAlgorithm, error) {
			return routing.NewUGAL(oft, routing.UGALConfig{NI: 4, C: 2}, sim.TestConfig(2))
		}},
		{"UGAL-ATh", oft, func() (sim.RoutingAlgorithm, error) {
			return routing.NewUGAL(oft, routing.UGALConfig{NI: 4, C: 2, Threshold: 0.1}, sim.TestConfig(2))
		}},
		{"SF-A", sf, func() (sim.RoutingAlgorithm, error) {
			return routing.NewUGAL(sf, routing.UGALConfig{NI: 4, CSF: 1, SFCost: true}, sim.TestConfig(4))
		}},
		{"UGAL-G", oft, func() (sim.RoutingAlgorithm, error) {
			return routing.NewUGALGlobal(oft, routing.UGALConfig{NI: 4, C: 2})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func() sim.Results {
				alg, err := c.mk()
				if err != nil {
					t.Fatal(err)
				}
				return runLoad(t, c.tp, alg, traffic.Uniform{N: c.tp.Nodes()}, 0.7, 3000)
			}
			if a, b := run(), run(); a != b {
				t.Errorf("two identical runs differ:\n%+v\n%+v", a, b)
			}
		})
	}
}
