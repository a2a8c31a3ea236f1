package sim

import "diam2/internal/telemetry"

// AttachTelemetry connects a telemetry collector, the engine's one
// optional observer. Attach before the run starts, or at the first
// cycle of the window to observe (link loads and events count from the
// attach cycle; VC residency assumes buffers empty at attach); pass
// nil to detach. The collector is purely observational — it is fed
// from the engine's recording hooks and never feeds anything back, so
// enabling telemetry does not change simulation results (the
// golden-stats suite pins this). With no collector attached every hook
// is a single nil check, preserving the zero-alloc hot path.
//
// The per-event hooks (heatmap, flight recorder) are unsynchronized by
// design, so they are wired only when one shard makes every call; from
// two shards up a collector records the observed window and nothing
// else.
func (e *Engine) AttachTelemetry(c *telemetry.Collector) {
	e.tel = c
	if len(e.shards) == 1 {
		e.shards[0].tel = c
		e.Net.tel = c
		if c != nil {
			c.Shape(len(e.Net.Routers), e.Cfg.NumVCs)
		}
	}
	if c != nil {
		c.Start(e.Now())
	}
}

// Finish finalizes end-of-run state: the telemetry collector, if any,
// records the end cycle. Finish is idempotent and does not advance the
// simulation; the harness calls it after every run, before reading
// Results.
func (e *Engine) Finish() {
	if e.tel != nil {
		e.tel.Finish(e.Now())
	}
}
