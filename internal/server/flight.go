package server

import (
	"errors"
	"sync"
	"sync/atomic"
)

// flightGroup deduplicates concurrent identical computations
// singleflight-style: the first caller for a key runs the function, later
// callers arriving before it finishes wait and share the result. Results
// are not cached — once the flight lands, the next caller recomputes (the
// durable caching lives in renewal.SweepCache and the sweep store; this
// layer only absorbs request stampedes).
type flightGroup struct {
	mu     sync.Mutex
	calls  map[string]*flightCall
	shared atomic.Uint64 // calls served by someone else's flight
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// errFlightPanicked is what waiting callers receive when the leading call
// panicked: the panic itself propagates only in the leader's goroutine.
var errFlightPanicked = errors.New("shared evaluation panicked; retry")

// do runs fn under the key, or waits for an identical in-flight call. The
// key is released and waiters are woken even if fn panics, so one panic
// never wedges later calls for the same key.
func (g *flightGroup) do(key string, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		g.shared.Add(1)
		<-c.done
		return c.val, c.err
	}
	c := &flightCall{done: make(chan struct{}), err: errFlightPanicked}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()

	c.val, c.err = fn()
	return c.val, c.err
}

// sharedCount returns how many calls were deduplicated onto another flight.
func (g *flightGroup) sharedCount() uint64 { return g.shared.Load() }
