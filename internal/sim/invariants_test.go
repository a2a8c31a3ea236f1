package sim

import (
	"strings"
	"testing"

	"diam2/internal/topo"
)

// TestInvariantsCatchCorruptMirrors corrupts, one at a time, each piece
// of state the hot path keeps beside the queues — inline heads, rings,
// wake cycles, counters, the packet size — on a loaded mid-run engine
// and requires CheckInvariants to name it. A sweep that passes on a
// healthy engine proves nothing unless it also fails on a sick one.
func TestInvariantsCatchCorruptMirrors(t *testing.T) {
	tp, err := topo.NewMLFM(3)
	if err != nil {
		t.Fatal(err)
	}
	alg := newBFSMinRoute(tp, 2)
	net, err := NewNetwork(tp, TestConfig(alg.NumVCs()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(net, alg, newFixedVolumeLoad(tp.Nodes(), 400))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunChecked(300, 50); err != nil {
		t.Fatal(err)
	}
	sh, rings := e.shards[0], &net.acts[0].rings

	// Pick state to corrupt: an input port holding a packet that has
	// arrived, an output queue holding one, a queue with a ring, and an
	// empty queue.
	var rIn, rOut *Router
	var inPort, outQ int
	var ringedQ, emptyQ *queue
	for _, r := range net.Routers {
		for i := range r.inQ {
			if q := &r.inQ[i]; rIn == nil && !q.empty() && q.head.ready <= e.Now() && r.inPortFree[i/r.nv] <= e.Now() {
				rIn, inPort = r, i/r.nv
			}
			if q := &r.outQ[i]; rOut == nil && !q.empty() {
				rOut, outQ = r, i
			}
			for _, q := range []*queue{&r.inQ[i], &r.outQ[i]} {
				if q.n > 1 {
					ringedQ = q
				}
				if q.empty() {
					emptyQ = q
				}
			}
		}
	}
	if rIn == nil || rOut == nil || ringedQ == nil || emptyQ == nil {
		t.Fatal("the run left no state to corrupt (weak test)")
	}
	node := &net.nodes[0]

	cases := []struct {
		name    string
		corrupt func() (undo func())
		want    string
	}{
		{"late input wake", func() func() {
			old := rIn.inWake[inPort]
			rIn.inWake[inPort] = e.Now() + 1000
			return func() { rIn.inWake[inPort] = old }
		}, "could route or grant"},
		{"late output wake", func() func() {
			port := outQ / rOut.nv
			old := rOut.outWake[port]
			rOut.outWake[port] = neverReady
			return func() { rOut.outWake[port] = old }
		}, "could send"},
		{"empty queue with a live head", func() func() {
			emptyQ.head.ready = e.Now()
			return func() { emptyQ.head.ready = neverReady }
		}, "empty but its head polls ready"},
		{"two queues on one ring", func() func() {
			off, size := emptyQ.off, emptyQ.cap
			emptyQ.off, emptyQ.cap = ringedQ.off, ringedQ.cap
			return func() { emptyQ.off, emptyQ.cap = off, size }
		}, "ring arena"},
		{"leaked ring", func() func() {
			rings.mem = append(rings.mem, entry{}, entry{}, entry{}, entry{})
			return func() { rings.mem = rings.mem[:len(rings.mem)-4] }
		}, "ring arena"},
		{"pending load off by a packet", func() func() {
			rIn.pendingOut[0] += int32(sh.pktFlits)
			rIn.occSum[0] += int32(sh.pktFlits)
			return func() { rIn.pendingOut[0] -= int32(sh.pktFlits); rIn.occSum[0] -= int32(sh.pktFlits) }
		}, "pendingOut"},
		{"occupancy sum drifted", func() func() {
			rOut.occSum[0]++
			return func() { rOut.occSum[0]-- }
		}, "occSum"},
		{"output occupancy below its buffer's content", func() func() {
			old := rOut.outOcc[outQ]
			rOut.outOcc[outQ] = 0
			rOut.occSum[outQ/rOut.nv] -= old
			return func() { rOut.outOcc[outQ] = old; rOut.occSum[outQ/rOut.nv] += old }
		}, "outOcc"},
		{"packet of the wrong size", func() func() {
			p := sh.pkt(rOut.outQ[outQ].head.h)
			p.Flits++
			return func() { p.Flits-- }
		}, "flits"},
		{"node credits beyond the buffer", func() func() {
			net.mem.w32[node.credits] += int32(e.Cfg.InputBufFlits)
			return func() { net.mem.w32[node.credits] -= int32(e.Cfg.InputBufFlits) }
		}, "node 0 vc 0 credits"},
		{"entry count drifted from the router's counter", func() func() {
			rOut.outCount++
			return func() { rOut.outCount-- }
		}, "queue counters"},
	}
	for _, c := range cases {
		undo := c.corrupt()
		err := e.CheckInvariants()
		undo()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants returned %v, want an error naming %q", c.name, err, c.want)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: undo left the engine unhealthy: %v", c.name, err)
		}
	}
}
