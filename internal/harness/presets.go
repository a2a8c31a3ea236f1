// Package harness assembles topologies, routing algorithms, traffic
// and the simulator into the paper's experiments. Every table and
// figure of the evaluation section has a generator here; the cmd
// tools and the repository benchmarks are thin wrappers around them.
package harness

import (
	"fmt"

	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/topo"
)

// UGALConfig re-exports the routing package's adaptive configuration
// for harness callers.
type UGALConfig = routing.UGALConfig

// Preset names one evaluated topology configuration together with the
// adaptive-routing constants the paper found to work best for it.
type Preset struct {
	Name string
	// Short is the preset's command-line name (-topo sf9, -draw mlfm).
	Short string
	Build func() (topo.Topology, error)
	// BestAdaptive returns the paper's preferred adaptive
	// configuration for this topology (used in Figs. 13 and 14).
	BestAdaptive routing.UGALConfig
	// SFStyle marks Slim Fly presets (length-ratio UGAL cost, 4 VCs).
	SFStyle bool
}

// PaperPresets returns the four Section 4.1 configurations
// (CORAL-Summit scale, N between 3042 and 3600).
func PaperPresets() []Preset {
	return []Preset{
		{
			Name:         "SF(q=13,p=9)",
			Short:        "sf9",
			Build:        func() (topo.Topology, error) { return topo.NewSlimFly(13, topo.RoundDown) },
			BestAdaptive: routing.UGALConfig{NI: 4, CSF: 1, SFCost: true},
			SFStyle:      true,
		},
		{
			Name:         "SF(q=13,p=10)",
			Short:        "sf10",
			Build:        func() (topo.Topology, error) { return topo.NewSlimFly(13, topo.RoundUp) },
			BestAdaptive: routing.UGALConfig{NI: 4, CSF: 1, SFCost: true},
			SFStyle:      true,
		},
		{
			Name:         "MLFM(h=15)",
			Short:        "mlfm",
			Build:        func() (topo.Topology, error) { return topo.NewMLFM(15) },
			BestAdaptive: routing.UGALConfig{NI: 5, C: 2},
		},
		{
			Name:         "OFT(k=12)",
			Short:        "oft",
			Build:        func() (topo.Topology, error) { return topo.NewOFT(12) },
			BestAdaptive: routing.UGALConfig{NI: 1, C: 2},
		},
	}
}

// SmallPresets returns reduced instances that exercise identical code
// paths at test/bench speed (a few hundred nodes each).
func SmallPresets() []Preset {
	return []Preset{
		{
			Name:         "SF(q=5,p=3)",
			Short:        "sf-small",
			Build:        func() (topo.Topology, error) { return topo.NewSlimFly(5, topo.RoundDown) },
			BestAdaptive: routing.UGALConfig{NI: 4, CSF: 1, SFCost: true},
			SFStyle:      true,
		},
		{
			Name:         "MLFM(h=6)",
			Short:        "mlfm-small",
			Build:        func() (topo.Topology, error) { return topo.NewMLFM(6) },
			BestAdaptive: routing.UGALConfig{NI: 5, C: 2},
		},
		{
			Name:         "OFT(k=6)",
			Short:        "oft-small",
			Build:        func() (topo.Topology, error) { return topo.NewOFT(6) },
			BestAdaptive: routing.UGALConfig{NI: 1, C: 2},
		},
	}
}

// PresetByShort resolves a command-line topology name among the paper
// and small presets.
func PresetByShort(name string) (Preset, error) {
	for _, p := range append(PaperPresets(), SmallPresets()...) {
		if p.Short == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("unknown topology %q", name)
}

// buildAlg constructs the routing algorithm and the simulator config
// sized for its VC requirement.
func buildAlg(t topo.Topology, kind AlgKind, ugal routing.UGALConfig, scale Scale) (sim.RoutingAlgorithm, sim.Config, error) {
	var alg sim.RoutingAlgorithm
	switch kind {
	case AlgMIN:
		alg = routing.NewMinimal(t)
	case AlgINR:
		alg = routing.NewValiant(t)
	case AlgA, AlgATh:
		cfg := ugal
		if kind == AlgATh {
			cfg.Threshold = 0.10
		} else {
			cfg.Threshold = 0
		}
		// The UGAL threshold is expressed against the port buffering,
		// so the sim config must exist first; VC count for adaptive
		// equals the indirect requirement.
		probe := routing.NewValiant(t)
		simCfg := scale.SimConfig(probe.NumVCs())
		u, err := routing.NewUGAL(t, cfg, simCfg)
		if err != nil {
			return nil, sim.Config{}, err
		}
		return u, simCfg, nil
	default:
		return nil, sim.Config{}, fmt.Errorf("harness: unknown algorithm kind %d", kind)
	}
	return alg, scale.SimConfig(alg.NumVCs()), nil
}
