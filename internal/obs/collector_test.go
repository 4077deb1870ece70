package obs

import "sync"

// Collector is an in-memory Tracer for this package's tests; events are
// retrievable in emission order.
type Collector struct {
	mu     sync.Mutex
	seq    int64
	events []Event
}

// Emit appends the event, assigning its sequence number.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	e.Seq = c.seq
	c.events = append(c.events, e)
}

// Events returns a copy of the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of collected events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}
