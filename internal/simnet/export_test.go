package simnet

// Simulator API that only this package's tests use: a broadcast condition,
// bare scheduled callbacks, a scoped resource hold and state accessors.

// Signal is a broadcast condition processes can wait on.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal returns a Signal bound to e.
func (e *Env) NewSignal() *Signal { return &Signal{env: e} }

// Wait suspends the process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.block()
}

// Broadcast wakes all current waiters (at the current virtual time).
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, p := range ws {
		proc := p
		s.env.schedule(s.env.now, func() { s.env.activate(proc) })
	}
}

// Events returns the number of events executed so far.
func (e *Env) Events() int64 { return e.executed }

// At schedules fn to run after delay seconds of virtual time.
func (e *Env) At(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(e.now+delay, fn)
}

// ActiveFlows returns the number of in-flight transfers.
func (p *Pipe) ActiveFlows() int { return len(p.active) }

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of waiting processes.
func (r *Resource) Queued() int { return len(r.queue) }

// WithResource runs fn while holding n units, releasing on return.
func (r *Resource) WithResource(p *Proc, n int, fn func()) {
	r.Acquire(p, n)
	defer r.Release(n)
	fn()
}
