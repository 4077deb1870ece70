// Package simnet is a discrete-event simulator used as the substitute for
// the paper's testbed (a FutureGrid VM at TACC staging data over a
// ~28 Mbit/s WAN to the ISI Obelix cluster). It provides:
//
//   - a virtual clock with an event heap (Env),
//   - SimPy-style processes: goroutines that advance only when the
//     scheduler resumes them, so execution is single-threaded and
//     deterministic (Proc),
//   - fluid-flow network pipes that share bandwidth among parallel
//     streams and degrade past an overload knee (Pipe),
//   - counting-semaphore resources for cluster cores and job slots
//     (Resource).
//
// Determinism: given the same seed and the same program, every run
// produces identical event order and timings.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Env is a simulation environment: virtual clock, event heap and process
// scheduler. Not safe for concurrent use by the host program; all
// interaction happens through Run and the process API.
type Env struct {
	now    float64
	seq    int64
	events eventHeap
	rng    *rand.Rand

	// yield is signalled by the running process when it blocks or exits.
	yield chan struct{}
	// liveProcs counts processes that have started and not finished.
	liveProcs int
	// blockedProcs counts processes waiting on a resume that nothing has
	// scheduled yet (sleep events don't count: they are scheduled).
	executed int64
}

// NewEnv returns an environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan struct{}),
	}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// schedule inserts a callback at absolute time at (>= now).
func (e *Env) schedule(at float64, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.events, &event{at: at, seq: e.seq, fn: fn})
}

// Run executes events until the heap is empty or until maxTime (use a
// non-positive maxTime for no limit). It returns the final virtual time.
// If processes remain blocked when the heap drains, Run panics: that is a
// deadlock in the simulated program.
func (e *Env) Run(maxTime float64) float64 {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		if maxTime > 0 && ev.at > maxTime {
			e.now = maxTime
			return e.now
		}
		e.now = ev.at
		e.executed++
		ev.fn()
	}
	if e.liveProcs > 0 {
		panic(fmt.Sprintf("simnet: deadlock: %d process(es) still blocked at t=%.3f", e.liveProcs, e.now))
	}
	return e.now
}

// Proc is a simulated process. Its function runs on a dedicated goroutine
// but only ever executes while the scheduler is paused, so the simulation
// stays sequential and deterministic.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Go starts a new process at the current virtual time.
func (e *Env) Go(name string, fn func(p *Proc)) {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	e.liveProcs++
	go func() {
		<-p.resume // wait for first activation
		fn(p)
		e.liveProcs--
		e.yield <- struct{}{} // return control to the scheduler
	}()
	e.schedule(e.now, func() { e.activate(p) })
}

// activate hands control to p until it blocks or exits. Runs in scheduler
// context.
func (e *Env) activate(p *Proc) {
	p.resume <- struct{}{}
	<-e.yield
}

// block suspends the calling process until something calls
// env.activate(p). Runs in process context.
func (p *Proc) block() {
	p.env.yield <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.schedule(e.now+d, func() { e.activate(p) })
	p.block()
}
