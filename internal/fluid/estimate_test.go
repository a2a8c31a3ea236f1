package fluid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"diam2/internal/sim"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// sortedMapLoads is the link-load representation EstimateAt replaced:
// a map keyed by directed link, holding only the links that carry
// load, summed in sorted link order.
type sortedMapLoads map[[2]int]float64

func toSortedMap(m *Model, l LinkLoads) sortedMapLoads {
	out := sortedMapLoads{}
	for u := 0; u < m.g.N(); u++ {
		for _, v := range m.g.Neighbors(u) {
			if x := l.At(u, v); x > 0 {
				out[[2]int{u, v}] = x
			}
		}
	}
	return out
}

func (l sortedMapLoads) lexOrder() [][2]int {
	links := make([][2]int, 0, len(l))
	for k := range l {
		links = append(links, k)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	return links
}

func (l sortedMapLoads) sum() float64 {
	var s float64
	for _, k := range l.lexOrder() {
		s += l[k]
	}
	return s
}

func (l sortedMapLoads) maxLoad() float64 {
	var max float64
	for _, v := range l {
		if v > max {
			max = v
		}
	}
	return max
}

// estimate is EstimateAt over the map, with AvgLatency's sorted walk.
func (l sortedMapLoads) estimate(avgHops, x float64, cfg sim.Config) Estimate {
	maxLoad := l.maxLoad()
	sat := 1.0
	if maxLoad > 1 {
		sat = 1 / maxLoad
	}
	base := float64((int(math.Round(avgHops))+1)*cfg.LinkLatency+(int(math.Round(avgHops))+1)*cfg.SwitchLatency) + float64(cfg.PacketFlits())
	var lat float64
	switch {
	case x <= 0:
		lat = base
	case x*maxLoad >= 1:
		lat = -1
	default:
		var total, wsum float64
		for _, link := range l.lexOrder() {
			rel := l[link]
			rho := x * rel
			w := rel
			total += w * rho / (2 * (1 - rho))
			wsum += w
		}
		queue := 0.0
		if wsum > 0 {
			queue = total / wsum * float64(cfg.PacketFlits())
		}
		lat = base + avgHops*queue
	}
	return Estimate{Load: x, Saturation: sat, MaxLinkLoad: maxLoad, AvgHops: avgHops, Throughput: math.Min(x, sat), AvgLatency: lat}
}

// TestEstimateAtMatchesSortedMap: one pass over the per-link slice
// gives bit for bit the estimates the sorted walk over a link map gave,
// for every family, pattern and routing over loads 0..2 (saturated
// loads included), and the mean hop count derived from the total load
// is unchanged too.
func TestEstimateAtMatchesSortedMap(t *testing.T) {
	builds := []func() (topo.Topology, error){
		func() (topo.Topology, error) { return topo.NewSlimFly(5, topo.RoundDown) },
		func() (topo.Topology, error) { return topo.NewMLFM(6) },
		func() (topo.Topology, error) { return topo.NewOFT(6) },
	}
	cfg := sim.TestConfig(1)
	bits := func(e Estimate) [6]uint64 {
		return [6]uint64{math.Float64bits(e.Load), math.Float64bits(e.Saturation), math.Float64bits(e.MaxLinkLoad),
			math.Float64bits(e.AvgHops), math.Float64bits(e.Throughput), math.Float64bits(e.AvgLatency)}
	}
	for _, b := range builds {
		tp, err := b()
		if err != nil {
			t.Fatal(err)
		}
		m := New(tp)
		wc, err := traffic.WorstCase(tp, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		perm, err := m.Permutation(wc)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct {
			pat    string
			demand Demand
		}{{"UNI", uniform(t, m)}, {"WC", perm}} {
			for _, rt := range []struct {
				name  string
				route func(Demand) LinkLoads
			}{{"MIN", m.Minimal}, {"INR", m.Valiant}} {
				loads := rt.route(d.demand)
				ref := toSortedMap(m, loads)
				if got, want := math.Float64bits(loads.Sum()), math.Float64bits(ref.sum()); got != want {
					t.Errorf("%s %s %s: Sum bits %x, sorted map %x", tp.Name(), d.pat, rt.name, got, want)
				}
				hops := loads.hops
				if want := ref.sum() / d.demand.cross; math.Float64bits(hops) != math.Float64bits(want) {
					t.Errorf("%s %s %s: hops %v, sorted map %v", tp.Name(), d.pat, rt.name, hops, want)
				}
				saturated := 0
				for i := 0; i <= 2000; i++ {
					x := 2 * float64(i) / 2000
					got, want := EstimateAt(loads, x, cfg), ref.estimate(hops, x, cfg)
					if bits(got) != bits(want) {
						t.Fatalf("%s %s %s load %v: estimate %+v, sorted map %+v", tp.Name(), d.pat, rt.name, x, got, want)
					}
					if got.Saturated() {
						saturated++
					}
				}
				if saturated == 0 {
					t.Errorf("%s %s %s: no saturated load in [0, 2]", tp.Name(), d.pat, rt.name)
				}
			}
		}
	}
}
