package server

import "time"

// The handler reads time only through its injected clock. The serving
// engine below runs on virtual nanoseconds; up here the measured
// quantities — refresh durations, coalescer gather times — default to the
// wall clock but accept a test- or simulation-supplied source, so the
// HTTP layer's observability can be driven deterministically too (and the
// clockcheck analyzer enforces that no stray time.Now call bypasses it).
// What is real waiting stays on the runtime clock: tickers (the refresh
// loop) and connection deadlines (wallNow).

// WithClock sets the handler's time source for measured durations
// (refresh duration, coalescer gather times). Defaults to the wall
// clock; nil is ignored.
func WithClock(now func() time.Time) Option {
	return func(h *Handler) {
		if now != nil {
			h.nowFn = now
		}
	}
}

// now reads the handler's injected clock.
func (h *Handler) now() time.Time { return h.nowFn() }

// wallNow reads the wall clock for what is real waiting by definition and
// never a measured quantity: connection deadlines and the Date header.
func wallNow() time.Time {
	return time.Now() //lint:allow clockcheck deadlines and Date are wall time, not measurements
}
