package simnet

// Resource is a counting semaphore in virtual time: cluster cores, job
// slots, storage servers. Waiters are served FIFO.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	queue    []*resWaiter
	seq      int64
}

type resWaiter struct {
	p    *Proc
	n    int
	prio int
	seq  int64
}

// NewResource returns a resource with the given capacity.
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("simnet: resource capacity must be >= 1")
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

// Acquire blocks the process until n units are available. Requests larger
// than the capacity panic (they could never be served). Waiters are served
// FIFO.
func (r *Resource) Acquire(p *Proc, n int) {
	r.AcquirePriority(p, n, 0)
}

// AcquirePriority is Acquire with a queueing priority: among waiting
// processes, higher priority is served first; ties are FIFO. This is how
// the executor realizes the structure-based staging priorities of
// Section III(c) — high-priority staging tasks get the local job slots
// first.
func (r *Resource) AcquirePriority(p *Proc, n, priority int) {
	if n < 1 {
		return
	}
	if n > r.capacity {
		panic("simnet: acquire exceeds resource capacity: " + r.name)
	}
	if len(r.queue) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.seq++
	w := &resWaiter{p: p, n: n, prio: priority, seq: r.seq}
	// Insert keeping the queue sorted by (priority desc, seq asc).
	i := len(r.queue)
	for i > 0 {
		q := r.queue[i-1]
		if q.prio >= w.prio {
			break
		}
		i--
	}
	r.queue = append(r.queue, nil)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = w
	p.block()
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n < 1 {
		return
	}
	r.inUse -= n
	if r.inUse < 0 {
		r.inUse = 0
	}
	for len(r.queue) > 0 {
		w := r.queue[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.queue = r.queue[1:]
		r.inUse += w.n
		proc := w.p
		r.env.schedule(r.env.now, func() { r.env.activate(proc) })
	}
}
