package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// ring is a fixed-capacity circular buffer that keeps the most recent
// events — flight-recorder semantics: when a run collapses, the tail
// of the event stream is the part worth reading. Memory is bounded at
// capacity regardless of run length.
type ring struct {
	buf   []Event // fixed length == capacity
	start int     // index of the oldest held event
	n     int     // events currently held
}

func newRing(capacity int) ring {
	if capacity < 1 {
		capacity = 1
	}
	return ring{buf: make([]Event, capacity)}
}

func (r *ring) push(ev Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
}

// slice returns the held events oldest-first.
func (r *ring) slice() []Event {
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// WriteJSONL writes the flight-recorder contents as one JSON object
// per line, oldest event first. The label, when non-empty, is emitted
// on each line so traces from many runs can be concatenated and still
// attributed.
func (c *Collector) WriteJSONL(w io.Writer) error {
	events := c.Events()
	label := c.Label()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if label == "" {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			continue
		}
		if err := enc.Encode(labeledEvent{Label: label, Event: ev}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// labeledEvent wraps an Event with its run label for multi-run traces.
type labeledEvent struct {
	Label string `json:"label"`
	Event
}
