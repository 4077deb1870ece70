// Package admit is the admission-control layer in front of the policy
// core. It bounds the work the service accepts instead of letting every
// request park a goroutine on the service mutex: mutating requests enter
// a bounded coalescing queue drained in batches (one lock acquisition and
// one group-commit fsync per batch), read-only requests pass through a
// bounded concurrency gate, and everything beyond the configured depth or
// wait budget is shed with an explicit "busy" error before any side
// effect happens. Queued requests whose client context has already ended
// are abandoned rather than executed — the client stopped listening, so
// performing the work would only add load during overload.
package admit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"policyflow/internal/obs"
)

// Admission classes, used as the metric label and the Depth selector.
const (
	ClassMutate = "mutate"
	ClassRead   = "read"
)

// Shedding errors. ErrQueueFull and ErrWaitExceeded mean "healthy but
// busy" (HTTP 429): the caller should back off and retry. ErrDraining
// means the controller is shutting down (HTTP 503). ErrCanceled means
// the caller's own context ended while the request was queued; the
// request was abandoned without side effects.
var (
	ErrQueueFull    = errors.New("admit: queue full")
	ErrWaitExceeded = errors.New("admit: queue wait budget exceeded")
	ErrDraining     = errors.New("admit: draining, not accepting new work")
	ErrCanceled     = errors.New("admit: canceled while queued")
)

// Config bounds the controller. The zero value of any field selects its
// default.
type Config struct {
	// MaxQueue is the depth bound per class: mutations queued for the
	// batch dispatcher, and reads waiting for a concurrency slot. Beyond
	// it submissions shed immediately with ErrQueueFull.
	MaxQueue int
	// MaxWait is how long a request may sit queued before it is shed
	// with ErrWaitExceeded. Bounding the wait keeps queueing delay out
	// of p99 once the service saturates: beyond saturation the queue
	// would otherwise just move latency, not absorb load.
	MaxWait time.Duration
	// BatchMax caps how many mutations one dispatcher drain coalesces
	// into a single BatchRunner call.
	BatchMax int
	// ReadConcurrency is how many read-only requests may execute at
	// once.
	ReadConcurrency int
	// RetryAfter is the hint handed to shed clients (the Retry-After
	// header upstream).
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 250 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.ReadConcurrency <= 0 {
		c.ReadConcurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// BatchRunner executes one coalesced batch of mutations. It is called
// from the dispatcher goroutine with 1..BatchMax payloads and must set
// per-payload results/errors on the payloads themselves; a panic fails
// every task in the batch but leaves the dispatcher running. The batch
// slice is the dispatcher's and is reused once the call returns, so a
// runner must not keep it. A payload that implements Waiter may be final
// only after its Wait returns: the runner may return while it still
// commits it.
type BatchRunner func(batch []any)

// Waiter is a payload whose result is final only once Wait returns, which
// may be after the BatchRunner call that ran it (a pipelined runner
// commits in the background). SubmitMutation waits for it before
// returning, and it counts as pending — in Depth and for Drain — until
// then. The dispatcher also waits for a batch's Waiters once the next
// batch's BatchRunner call has returned, so at most two batches are
// executing or committing at any instant.
type Waiter interface{ Wait() }

type taskState = int32

const (
	taskPending   taskState = iota // queued, owned by nobody yet
	taskClaimed                    // dispatcher won the task
	taskAbandoned                  // waiter gave up (timeout or cancel)
)

// mutTask is one queued mutation. The waiter and the dispatcher race for
// ownership through the state CAS: exactly one side wins, so a task is
// either executed (dispatcher claims it, then closes done) or provably
// never touched (waiter abandons it; the dispatcher discards it on
// dequeue without running it).
type mutTask struct {
	ctx     context.Context
	payload any
	onStart func()
	state   atomic.Int32
	// err and wait are set by the dispatcher before close(done). wait
	// means the task ran and its payload is a Waiter: it leaves once
	// Wait has returned, by settle, from whichever of its submitter or
	// the dispatcher gets there first.
	err     error
	wait    bool
	settled atomic.Bool
	done    chan struct{}
}

// Controller is the admission gate. Build one with New, hand mutations to
// SubmitMutation and reads to AcquireRead, and Drain+Close it on
// shutdown.
type Controller struct {
	cfg Config
	run BatchRunner

	mutCh     chan *mutTask
	readSlots chan struct{}

	mu            sync.Mutex
	closed        bool
	pendingMut    int
	pendingRead   int
	drainSignaled bool
	drained       chan struct{}

	failNext atomic.Int64

	stop           chan struct{}
	stopOnce       sync.Once
	dispatcherDone chan struct{}

	// batch and payloads are the batch being collected and run;
	// committing holds the Waiter tasks of the last batch run, for the
	// dispatcher to settle after the next batch, and spare is its other
	// buffer. All are dispatcher-owned and reused from batch to batch.
	batch, committing, spare []*mutTask
	payloads                 []any

	shed      *obs.CounterVec
	batchSize *obs.Histogram
}

// New builds a controller and starts its dispatcher goroutine. run must
// not be nil.
func New(cfg Config, run BatchRunner) *Controller {
	if run == nil {
		panic("admit: nil BatchRunner")
	}
	c := &Controller{
		cfg:            cfg.withDefaults(),
		run:            run,
		drained:        make(chan struct{}),
		stop:           make(chan struct{}),
		dispatcherDone: make(chan struct{}),
	}
	c.mutCh = make(chan *mutTask, c.cfg.MaxQueue)
	c.readSlots = make(chan struct{}, c.cfg.ReadConcurrency)
	go c.dispatch()
	return c
}

// Instrument registers the admission metrics on reg: the depth gauge reads
// Depth at scrape time; sheds and batch sizes are recorded from then on.
// Call before serving traffic.
func (c *Controller) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("policy_admit_depth",
		"Requests queued or executing per admission class.", func(emit obs.Emit) {
			emit(float64(c.Depth(ClassMutate)), ClassMutate)
			emit(float64(c.Depth(ClassRead)), ClassRead)
		}, "class")
	c.shed = reg.Counter("policy_admit_shed_total",
		"Requests shed by admission control.", "class", "reason")
	c.batchSize = reg.Histogram("policy_admit_batch_size",
		"Mutations coalesced per batch drain.",
		obs.ExpBuckets(1, 2, 8)).With()
}

// RetryAfterHint is the backoff the controller suggests to shed clients.
func (c *Controller) RetryAfterHint() time.Duration { return c.cfg.RetryAfter }

// FailNext arms n injected sheds: the next n SubmitMutation calls are
// rejected with ErrQueueFull regardless of actual queue state. It exists
// so fault-injection harnesses can exercise the shed path
// deterministically; timing-based shedding is inherently racy.
func (c *Controller) FailNext(n int) { c.failNext.Add(int64(n)) }

func (c *Controller) consumeFailNext() bool {
	for {
		v := c.failNext.Load()
		if v <= 0 {
			return false
		}
		if c.failNext.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// Depth reports how many requests of the class are queued, executing or,
// for Waiter payloads, still committing.
func (c *Controller) Depth(class string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if class == ClassRead {
		return c.pendingRead
	}
	return c.pendingMut
}

func (c *Controller) shedMetric(class, reason string) {
	if c.shed != nil {
		c.shed.With(class, reason).Inc()
	}
}

// enterRead admits one read into the pending count, or reports why it
// cannot. The caller must pair every successful enterRead with exactly
// one leave.
func (c *Controller) enterRead() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrDraining
	}
	if c.pendingRead >= c.cfg.MaxQueue+c.cfg.ReadConcurrency {
		return ErrQueueFull
	}
	c.pendingRead++
	return nil
}

// enqueue admits one mutation: it is counted as pending and handed to the
// dispatcher under a single hold of c.mu, so Depth never includes a
// submission that is about to be shed — the bound (MaxQueue plus the
// batch executing, plus a pipelined runner's batch still committing)
// holds at every instant, not just between submissions. On refusal it
// names the shed reason; a successful enqueue is paired with exactly one
// leave: by the dispatcher, or by settle for a Waiter it ran.
func (c *Controller) enqueue(t *mutTask) (shedReason string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return "draining", ErrDraining
	case c.consumeFailNext():
		return "injected", ErrQueueFull
	}
	select {
	case c.mutCh <- t:
	default:
		return "queue_full", ErrQueueFull
	}
	c.pendingMut++
	return "", nil
}

func (c *Controller) leave(class string) {
	c.mu.Lock()
	if class == ClassRead {
		c.pendingRead--
	} else {
		c.pendingMut--
	}
	if c.closed && c.pendingMut+c.pendingRead == 0 && !c.drainSignaled {
		c.drainSignaled = true
		close(c.drained)
	}
	c.mu.Unlock()
}

// SubmitMutation queues payload for the batch dispatcher and blocks until
// it has been executed (for a Waiter, until its Wait has returned), shed,
// or abandoned. A nil return means the payload went through a BatchRunner
// call; any result lives on the payload itself. onStart, if non-nil, runs
// on the dispatcher goroutine the moment the task is dequeued for
// execution (it ends the queue-wait trace span upstream); it is never
// called for shed or abandoned tasks.
//
// Every rejection happens before the payload reaches the runner, so a
// non-nil error guarantees the mutation had no side effects.
func (c *Controller) SubmitMutation(ctx context.Context, payload any, onStart func()) error {
	t := &mutTask{ctx: ctx, payload: payload, onStart: onStart, done: make(chan struct{})}
	if reason, err := c.enqueue(t); err != nil {
		c.shedMetric(ClassMutate, reason)
		return err
	}
	timer := time.NewTimer(c.cfg.MaxWait)
	defer timer.Stop()
	select {
	case <-t.done:
	case <-ctx.Done():
		if t.state.CompareAndSwap(taskPending, taskAbandoned) {
			c.shedMetric(ClassMutate, "client_gone")
			return fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
		}
		// The dispatcher claimed the task first; the batch is running, so
		// wait for its verdict.
	case <-timer.C:
		if t.state.CompareAndSwap(taskPending, taskAbandoned) {
			c.shedMetric(ClassMutate, "wait_exceeded")
			return ErrWaitExceeded
		}
	}
	<-t.done
	if t.wait {
		c.settle(t)
	}
	return t.err
}

// settle waits for a Waiter task the dispatcher ran and then leaves,
// exactly once whoever calls it.
func (c *Controller) settle(t *mutTask) {
	t.payload.(Waiter).Wait()
	if t.settled.CompareAndSwap(false, true) {
		c.leave(ClassMutate)
	}
}

// AcquireRead admits one read-only request, blocking up to MaxWait for a
// concurrency slot. On success the returned release function must be
// called when the read finishes (it is idempotent).
func (c *Controller) AcquireRead(ctx context.Context) (release func(), err error) {
	if err := c.enterRead(); err != nil {
		c.shedMetric(ClassRead, reasonFor(err))
		return nil, err
	}
	timer := time.NewTimer(c.cfg.MaxWait)
	defer timer.Stop()
	select {
	case c.readSlots <- struct{}{}:
		var once sync.Once
		return func() {
			once.Do(func() {
				<-c.readSlots
				c.leave(ClassRead)
			})
		}, nil
	case <-ctx.Done():
		c.leave(ClassRead)
		c.shedMetric(ClassRead, "client_gone")
		return nil, fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	case <-timer.C:
		c.leave(ClassRead)
		c.shedMetric(ClassRead, "wait_exceeded")
		return nil, ErrWaitExceeded
	}
}

func reasonFor(err error) string {
	switch {
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrWaitExceeded):
		return "wait_exceeded"
	default:
		return "queue_full"
	}
}

// Drain stops admitting new work (submissions shed with ErrDraining) and
// waits until everything already accepted has finished, Waiter payloads
// committed included, so a store the runner writes may be closed as soon
// as Drain returns. The dispatcher keeps running so queued mutations
// complete; call Close afterwards to stop it.
func (c *Controller) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	if !c.drainSignaled && c.pendingMut+c.pendingRead == 0 {
		c.drainSignaled = true
		close(c.drained)
	}
	c.mu.Unlock()
	select {
	case <-c.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops admitting new work and terminates the dispatcher. Tasks
// still queued are failed with ErrDraining (their waiters unblock) rather
// than executed. Close blocks until the dispatcher goroutine has exited;
// call Drain first for a graceful stop.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.dispatcherDone
}

func (c *Controller) dispatch() {
	defer close(c.dispatcherDone)
	for {
		select {
		case t := <-c.mutCh:
			c.drainBatch(t)
		case <-c.stop:
			// Fail whatever is still queued so no waiter hangs.
			for {
				select {
				case t := <-c.mutCh:
					if t.state.CompareAndSwap(taskPending, taskClaimed) {
						t.err = ErrDraining
						close(t.done)
					}
					c.leave(ClassMutate)
				default:
					return
				}
			}
		}
	}
}

// admitTask adds a dequeued task to the batch being collected, unless its
// waiter abandoned it or its client is gone.
func (c *Controller) admitTask(t *mutTask) {
	if !t.state.CompareAndSwap(taskPending, taskClaimed) {
		// The waiter abandoned it (timeout or cancel); it was never
		// executed.
		c.leave(ClassMutate)
		return
	}
	if t.ctx != nil && t.ctx.Err() != nil {
		// Deadline propagation: the client is gone, don't do the work.
		t.err = fmt.Errorf("%w: %v", ErrCanceled, t.ctx.Err())
		close(t.done)
		c.leave(ClassMutate)
		c.shedMetric(ClassMutate, "client_gone")
		return
	}
	if t.onStart != nil {
		t.onStart()
	}
	c.batch = append(c.batch, t)
	c.payloads = append(c.payloads, t.payload)
}

// drainBatch coalesces up to BatchMax queued mutations (starting with
// first) into one BatchRunner call. Abandoned tasks are discarded;
// tasks whose client context already ended are abandoned here — shed
// after queueing but still strictly before execution.
func (c *Controller) drainBatch(first *mutTask) {
	c.admitTask(first)
	for len(c.batch) < c.cfg.BatchMax {
		select {
		case t := <-c.mutCh:
			c.admitTask(t)
		default:
			goto collected
		}
	}
collected:
	batch := c.batch
	if len(batch) == 0 {
		return
	}
	if c.batchSize != nil {
		c.batchSize.Observe(float64(len(batch)))
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("admit: batch runner panic: %v", r)
				for _, t := range batch {
					if t.err == nil {
						t.err = err
					}
				}
			}
		}()
		c.run(c.payloads)
	}()
	clear(c.payloads)
	c.payloads = c.payloads[:0]
	prev := c.committing
	c.committing = c.spare[:0]
	for _, t := range batch {
		_, waiter := t.payload.(Waiter)
		if t.wait = waiter && t.err == nil; t.wait {
			c.committing = append(c.committing, t)
		}
		close(t.done)
		if !t.wait {
			c.leave(ClassMutate)
		}
	}
	clear(batch)
	c.batch = batch[:0]
	// The batch before this one has had a whole BatchRunner call to
	// commit; wait for it here rather than on its submitters alone, so
	// Depth never counts more than two batches past the queue.
	for _, t := range prev {
		c.settle(t)
	}
	c.spare = prev[:0]
}
