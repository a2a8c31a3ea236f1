package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// LinkSnap is one directed link of the congestion heatmap.
type LinkSnap struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Flits int64   `json:"flits"`
	PerVC []int64 `json:"per_vc,omitempty"`
	// Load is flits carried per observed cycle (1.0 = fully occupied).
	Load float64 `json:"load"`
}

// VCSnap is the input-buffer pressure of one (router, VC) pair.
type VCSnap struct {
	Router   int   `json:"router"`
	VC       int   `json:"vc"`
	Resident int   `json:"resident"` // packets buffered at snapshot time
	Peak     int   `json:"peak"`     // high-water mark, packets
	Enqueues int64 `json:"enqueues"` // cumulative packets buffered
}

// HistSnap summarizes one histogram: the count, the exact mean and max,
// and bucket-granularity percentiles.
type HistSnap struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// histSnap summarizes h. A percentile is its bucket's upper bound; one
// past the histogram's range (+Inf) is clamped to the exact max, so
// every summary encodes as JSON.
func histSnap(h *Histogram) HistSnap {
	s := HistSnap{N: h.N(), Mean: h.Mean(), Max: h.Max()}
	pct := func(p float64) float64 {
		if v := h.Percentile(p); !math.IsInf(v, 1) {
			return v
		}
		return s.Max
	}
	s.P50, s.P95, s.P99 = pct(50), pct(95), pct(99)
	return s
}

// Snapshot is a self-contained, JSON-serializable view of a
// collector's state. Slices are sorted deterministically, so two
// snapshots of identical runs marshal to identical bytes.
type Snapshot struct {
	Label    string `json:"label,omitempty"`
	Cycles   int64  `json:"cycles"`   // observed cycles: start to Finish, or to the last event while running
	Finished bool   `json:"finished"` // the run called Finish

	// Events counts every recorded event by kind (including events the
	// bounded ring has evicted); RingEvents is what the ring still holds.
	Events     map[string]int64 `json:"events"`
	RingEvents int              `json:"ring_events"`

	Injected       int64 `json:"injected"`    // inject + retransmit events
	Delivered      int64 `json:"delivered"`   // deliver events
	Dropped        int64 `json:"dropped"`     // drop events
	Retransmits    int64 `json:"retransmits"` // retransmit events
	FlitsInjected  int64 `json:"flits_injected"`
	FlitsDelivered int64 `json:"flits_delivered"`
	LinkFlits      int64 `json:"link_flits"`     // flits that completed a router-to-router hop
	HopsDelivered  int64 `json:"hops_delivered"` // sum of Hops over delivered packets

	// Links is the congestion heatmap, hottest first.
	Links []LinkSnap `json:"links"`
	// VCs lists (router, VC) pairs with any buffered traffic, by
	// descending peak occupancy.
	VCs []VCSnap `json:"vcs"`

	LatencyMinimal  HistSnap `json:"latency_minimal"`
	LatencyIndirect HistSnap `json:"latency_indirect"`
}

// Snapshot captures the collector's current state. It can be called
// while the engine is running (live introspection) or after Finish;
// loads are normalized by the observed window, which ends at the
// Finish cycle or, while the run goes on, at its last recorded event.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	window := c.endCycle - c.startCycle
	s := &Snapshot{
		Label:          c.label,
		Cycles:         window,
		Finished:       c.finished,
		Events:         make(map[string]int64, int(numEventKinds)),
		RingEvents:     c.ring.n,
		Injected:       c.counts[EvInject] + c.counts[EvRetransmit],
		Delivered:      c.counts[EvDeliver],
		Dropped:        c.counts[EvDrop],
		Retransmits:    c.counts[EvRetransmit],
		FlitsInjected:  c.flitsInjected,
		FlitsDelivered: c.flitsDelivered,
		LinkFlits:      c.linkFlits,
		HopsDelivered:  c.hopsDelivered,
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		s.Events[k.String()] = c.counts[k]
	}
	s.Links = make([]LinkSnap, 0, len(c.links))
	for k, lc := range c.links {
		ls := LinkSnap{From: k.From, To: k.To, Flits: lc.flits, PerVC: append([]int64(nil), lc.perVC...)}
		if window > 0 {
			ls.Load = float64(lc.flits) / float64(window)
		}
		s.Links = append(s.Links, ls)
	}
	sortLinks(s.Links)
	for i := range c.vcOcc {
		o := &c.vcOcc[i]
		if o.enqueues == 0 {
			continue
		}
		s.VCs = append(s.VCs, VCSnap{
			Router:   i / c.nVCs,
			VC:       i % c.nVCs,
			Resident: int(o.cur),
			Peak:     int(o.peak),
			Enqueues: o.enqueues,
		})
	}
	sort.Slice(s.VCs, func(i, j int) bool {
		a, b := s.VCs[i], s.VCs[j]
		if a.Peak != b.Peak {
			return a.Peak > b.Peak
		}
		if a.Router != b.Router {
			return a.Router < b.Router
		}
		return a.VC < b.VC
	})
	s.LatencyMinimal = histSnap(c.latMinimal)
	s.LatencyIndirect = histSnap(c.latIndirect)
	return s
}

// sortLinks orders a heatmap hottest-first with a deterministic
// tie-break on endpoints.
func sortLinks(links []LinkSnap) {
	sort.Slice(links, func(i, j int) bool {
		a, b := links[i], links[j]
		if a.Flits != b.Flits {
			return a.Flits > b.Flits
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
}

// MergeLinks aggregates the heatmaps of many snapshots (e.g. every
// point of a sweep) into one, summing flits per directed link. Loads
// are re-normalized by the summed observed cycles of the inputs.
func MergeLinks(snaps []*Snapshot) []LinkSnap {
	agg := map[linkKey]*LinkSnap{}
	var cycles int64
	for _, s := range snaps {
		cycles += s.Cycles
		for _, l := range s.Links {
			k := linkKey{l.From, l.To}
			a := agg[k]
			if a == nil {
				a = &LinkSnap{From: l.From, To: l.To}
				agg[k] = a
			}
			a.Flits += l.Flits
			for len(a.PerVC) < len(l.PerVC) {
				a.PerVC = append(a.PerVC, 0)
			}
			for vc, f := range l.PerVC {
				a.PerVC[vc] += f
			}
		}
	}
	out := make([]LinkSnap, 0, len(agg))
	for _, a := range agg {
		if cycles > 0 {
			a.Load = float64(a.Flits) / float64(cycles)
		}
		out = append(out, *a)
	}
	sortLinks(out)
	return out
}

// WriteHeatmapCSV renders a heatmap as CSV (from,to,flits,load, then
// one column per VC present), hottest link first.
func WriteHeatmapCSV(w io.Writer, links []LinkSnap) error {
	maxVC := 0
	for _, l := range links {
		maxVC = max(maxVC, len(l.PerVC))
	}
	rows := [][]string{{"from", "to", "flits", "load"}}
	for vc := 0; vc < maxVC; vc++ {
		rows[0] = append(rows[0], fmt.Sprintf("vc%d", vc))
	}
	for _, l := range links {
		row := []string{strconv.Itoa(l.From), strconv.Itoa(l.To), strconv.FormatInt(l.Flits, 10), strconv.FormatFloat(l.Load, 'f', 6, 64)}
		for vc := 0; vc < maxVC; vc++ {
			var f int64
			if vc < len(l.PerVC) {
				f = l.PerVC[vc]
			}
			row = append(row, strconv.FormatInt(f, 10))
		}
		rows = append(rows, row)
	}
	return csv.NewWriter(w).WriteAll(rows)
}
