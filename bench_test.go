// Package diam2 benchmarks for the paper's analytic exhibits — Table 2
// and Figs. 3-4, which run no simulation. Each regenerates its exhibit
// and reports the headline quantity the paper plots as a custom metric.
//
// The simulated exhibits (Figs. 6-14) are measured by the repository
// benchmark's figs_sweep workload (go run ./bench, see bench/README.md)
// and regenerated with cmd/diam2sweep; see EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
package diam2_test

import (
	"testing"

	"diam2"
)

// smallPreset returns the reduced preset for a family: 0 = SF,
// 1 = MLFM, 2 = OFT.
func smallPreset(i int) diam2.Preset { return diam2.SmallPresets()[i] }

func buildSmall(b *testing.B, i int) diam2.Topology {
	b.Helper()
	tp, err := smallPreset(i).Build()
	if err != nil {
		b.Fatal(err)
	}
	return tp
}

// BenchmarkTable2ML3B regenerates Table 2 (the 4-ML3B construction)
// plus the full k = 12 pattern used in the paper's evaluation.
func BenchmarkTable2ML3B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := diam2.Table2ML3B(4); err != nil {
			b.Fatal(err)
		}
		if _, err := diam2.ML3BPattern(12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Scalability regenerates the Fig. 3 scalability/cost
// table for radices up to 64 and reports the headline comparison:
// OFT scales to ~2x the nodes of the MLFM and SF at equal radix.
func BenchmarkFig3Scalability(b *testing.B) {
	var oftNodes, mlfmNodes int
	for i := 0; i < b.N; i++ {
		tab := diam2.Fig3Scalability([]int{16, 24, 32, 40, 48, 56, 64})
		for _, row := range tab.Rows {
			if row[0] == "64" {
				switch row[1] {
				case "OFT":
					oftNodes = atoi(row[3])
				case "MLFM":
					mlfmNodes = atoi(row[3])
				}
			}
		}
	}
	b.ReportMetric(float64(oftNodes), "OFT-nodes@64")
	b.ReportMetric(float64(oftNodes)/float64(mlfmNodes), "OFT/MLFM-ratio")
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

// BenchmarkFig4Bisection regenerates the Fig. 4 bisection estimates on
// the reduced presets and reports the per-node bandwidth of each.
func BenchmarkFig4Bisection(b *testing.B) {
	est := make([]float64, 3)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 3; j++ {
			tp := buildSmall(b, j)
			v, err := diam2.BisectionEstimate(tp, 9, 30, 42)
			if err != nil {
				b.Fatal(err)
			}
			est[j] = v
		}
	}
	b.ReportMetric(est[0], "SF-bisection/node")
	b.ReportMetric(est[1], "MLFM-bisection/node")
	b.ReportMetric(est[2], "OFT-bisection/node")
}
