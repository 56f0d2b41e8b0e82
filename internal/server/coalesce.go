package server

import (
	"sync"
	"time"
)

// coalescer is a micro-batching queue: items submitted by concurrent
// request handlers are gathered into batches of up to maxBatch, waiting at
// most window after the first arrival, and handed to dispatch on a fresh
// goroutine — so the collector keeps gathering the next batch while the
// engine processes the current one. This is how network fan-in (many
// single-photo insert requests) is converted into the wide
// Engine.InsertBatch calls the engine's batch ingest path was built for.
//
// dispatch owns replying to every item it is given; submit-side handlers
// block on their per-item response channel.
type coalescer[T any] struct {
	jobs     chan T
	window   time.Duration
	maxBatch int
	dispatch func([]T)
	wg       sync.WaitGroup
}

// newCoalescer starts the collector goroutine. window must be positive and
// maxBatch at least 1.
func newCoalescer[T any](window time.Duration, maxBatch int, dispatch func([]T)) *coalescer[T] {
	c := &coalescer[T]{
		// The submit channel is buffered to one batch so a burst does not
		// serialize on the collector's loop iterations.
		jobs:     make(chan T, maxBatch),
		window:   window,
		maxBatch: maxBatch,
		dispatch: dispatch,
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// submit hands one item to the collector. It must not be called after
// close; the server's drain sequence guarantees that (handlers are drained
// by http.Server.Shutdown before the coalescer is closed).
func (c *coalescer[T]) submit(t T) { c.jobs <- t }

// close stops the collector after the in-flight batches complete. Items
// already submitted are still dispatched.
func (c *coalescer[T]) close() {
	close(c.jobs)
	c.wg.Wait()
}

func (c *coalescer[T]) run() {
	defer c.wg.Done()
	for {
		first, ok := <-c.jobs
		if !ok {
			return
		}
		batch := make([]T, 1, c.maxBatch)
		batch[0] = first
		timer := time.NewTimer(c.window)
	gather:
		for len(batch) < c.maxBatch {
			select {
			case j, ok := <-c.jobs:
				if !ok {
					break gather // dispatch the tail, then exit on next receive
				}
				batch = append(batch, j)
			case <-timer.C:
				break gather
			}
		}
		timer.Stop()
		c.wg.Add(1)
		go func(b []T) {
			defer c.wg.Done()
			c.dispatch(b)
		}(batch)
	}
}
