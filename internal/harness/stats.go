package harness

import (
	"fmt"
	"math"

	"diam2/internal/topo"
)

// Replication summarizes independent replications of one experiment
// point (different RNG seeds).
type Replication struct {
	N              int
	MeanThroughput float64
	StdThroughput  float64
	MeanLatency    float64
	StdLatency     float64
}

// Replicate runs a synthetic experiment n times with seeds
// baseSeed..baseSeed+n-1 and returns mean and sample standard
// deviation of throughput and average latency — the error bars the
// paper's plots omit.
func Replicate(t topo.Topology, kind AlgKind, ugal UGALConfig, pat PatternKind, load float64, scale Scale, n int, baseSeed int64) (Replication, error) {
	if n < 2 {
		return Replication{}, fmt.Errorf("harness: replication needs n >= 2")
	}
	thr := make([]float64, 0, n)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s := scale
		s.Seed = baseSeed + int64(i)
		res, err := RunSynthetic(t, kind, ugal, pat, load, s)
		if err != nil {
			return Replication{}, err
		}
		thr = append(thr, res.Throughput)
		lat = append(lat, res.AvgLatency)
	}
	rep := Replication{N: n}
	rep.MeanThroughput, rep.StdThroughput = meanStd(thr)
	rep.MeanLatency, rep.StdLatency = meanStd(lat)
	return rep, nil
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
