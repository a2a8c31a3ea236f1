package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
)

// TraceRecord is one message of an application communication trace:
// at cycle Time, node Src wants to send Packets packets to node Dst.
type TraceRecord struct {
	Time    int64
	Src     int
	Dst     int
	Packets int
}

// Trace replays a recorded communication pattern as a closed-loop
// workload: each record becomes eligible for injection at its
// timestamp; a node drains its eligible records in timestamp order.
type Trace struct {
	label   string
	perNode [][]TraceRecord // sorted by Time
	cursor  []int           // next record index per node
	pending []int           // packets left in the current record per node
	// left is atomic for the same reason as Exchange.left: sharded
	// engines drain different source nodes concurrently.
	left  atomic.Int64
	total int64
}

// NewTrace builds a trace workload for a machine with n nodes. The
// records may be in any order; they are validated against n.
func NewTrace(label string, n int, records []TraceRecord) (*Trace, error) {
	t := &Trace{
		label:   label,
		perNode: make([][]TraceRecord, n),
		cursor:  make([]int, n),
		pending: make([]int, n),
	}
	for i, r := range records {
		switch {
		case r.Src < 0 || r.Src >= n:
			return nil, fmt.Errorf("traffic: record %d: source %d out of range", i, r.Src)
		case r.Dst < 0 || r.Dst >= n:
			return nil, fmt.Errorf("traffic: record %d: destination %d out of range", i, r.Dst)
		case r.Src == r.Dst:
			return nil, fmt.Errorf("traffic: record %d: self-message", i)
		case r.Packets < 1:
			return nil, fmt.Errorf("traffic: record %d: %d packets", i, r.Packets)
		case r.Time < 0:
			return nil, fmt.Errorf("traffic: record %d: negative time", i)
		}
		t.perNode[r.Src] = append(t.perNode[r.Src], r)
		t.total += int64(r.Packets)
	}
	t.left.Store(t.total)
	for _, list := range t.perNode {
		sort.SliceStable(list, func(a, b int) bool { return list[a].Time < list[b].Time })
	}
	return t, nil
}

// Name implements sim.Workload.
func (t *Trace) Name() string { return t.label }

// TotalPackets returns the trace volume in packets.
func (t *Trace) TotalPackets() int64 { return t.total }

// NextPacket implements sim.Workload.
func (t *Trace) NextPacket(src int, now int64, _ *rand.Rand) (int, bool) {
	list := t.perNode[src]
	cur := t.cursor[src]
	if cur >= len(list) {
		return 0, false
	}
	rec := list[cur]
	if rec.Time > now {
		return 0, false
	}
	if t.pending[src] == 0 {
		t.pending[src] = rec.Packets
	}
	t.pending[src]--
	t.left.Add(-1)
	if t.pending[src] == 0 {
		t.cursor[src]++
	}
	return rec.Dst, true
}

// Done implements sim.Workload.
func (t *Trace) Done() bool { return t.left.Load() == 0 }

// ParallelSafe marks the workload safe for sharded engines
// (sim.ParallelSafeWorkload); see the left field.
func (t *Trace) ParallelSafe() {}

// ParseTrace reads the plain-text trace format: one record per line,
// "time src dst packets", with #-comments and blank lines ignored.
func ParseTrace(r io.Reader, label string, n int) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var records []TraceRecord
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var rec TraceRecord
		if _, err := fmt.Sscanf(text, "%d %d %d %d", &rec.Time, &rec.Src, &rec.Dst, &rec.Packets); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %v", line, err)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewTrace(label, n, records)
}

// WriteTrace serializes records in the ParseTrace format.
func WriteTrace(w io.Writer, records []TraceRecord) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# time src dst packets")
	for _, r := range records {
		fmt.Fprintf(bw, "%d %d %d %d\n", r.Time, r.Src, r.Dst, r.Packets)
	}
	return bw.Flush()
}

// SyntheticPhaseTrace generates a trace alternating compute (gaps)
// and communication phases: in each of the given phases, every node
// sends packetsPerMsg packets to its destination under the phase's
// permutation shift. It produces the bursty arrival structure real
// applications show, which open-loop Bernoulli traffic cannot.
func SyntheticPhaseTrace(n, phases, packetsPerMsg int, gap int64) []TraceRecord {
	var out []TraceRecord
	for ph := 0; ph < phases; ph++ {
		t := int64(ph) * gap
		shift := ph%(n-1) + 1
		for src := 0; src < n; src++ {
			out = append(out, TraceRecord{
				Time:    t,
				Src:     src,
				Dst:     (src + shift) % n,
				Packets: packetsPerMsg,
			})
		}
	}
	return out
}
