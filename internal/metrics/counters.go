package metrics

import "sync/atomic"

// Counter is a monotonically increasing event counter safe for concurrent
// use. The zero value is ready; serving-layer code embeds Counters for
// request totals, admission rejections and error counts.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }
