package simtime

import "sync"

// Clock is a virtual per-node clock. Message causality is enforced by
// Sync: a receiver's clock never runs behind the (send time + wire
// delay) of a message it processes, which is exactly Lamport's rule and
// makes the maximum clock over all nodes a valid parallel makespan.
type Clock struct {
	mu sync.Mutex
	ns int64
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

// Advance adds d nanoseconds of local work and returns the new time.
func (c *Clock) Advance(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ns += d
	return c.ns
}

// Sync raises the clock to at least ts (message arrival) and returns
// the new time.
func (c *Clock) Sync(ts int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts > c.ns {
		c.ns = ts
	}
	return c.ns
}

// Seconds converts nanoseconds to floating-point seconds.
func Seconds(ns int64) float64 { return float64(ns) / 1e9 }
