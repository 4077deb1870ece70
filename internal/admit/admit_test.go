package admit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"policyflow/internal/obs"
)

// gatedRunner blocks every batch until released, so tests control exactly
// when the dispatcher is busy and what has piled up behind it.
type gatedRunner struct {
	entered chan []any    // receives each batch as the runner starts it
	release chan struct{} // one receive per batch lets it finish
	batches [][]any       // completed batches, guarded by mu
	mu      sync.Mutex
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{entered: make(chan []any, 16), release: make(chan struct{}, 16)}
}

func (g *gatedRunner) run(batch []any) {
	g.entered <- batch
	<-g.release
	g.mu.Lock()
	g.batches = append(g.batches, batch)
	g.mu.Unlock()
}

func (g *gatedRunner) executed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, b := range g.batches {
		n += len(b)
	}
	return n
}

// submitAsync starts a SubmitMutation in a goroutine and returns its
// result channel.
func submitAsync(c *Controller, ctx context.Context, payload any) chan error {
	ch := make(chan error, 1)
	go func() { ch <- c.SubmitMutation(ctx, payload, nil) }()
	return ch
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxQueue != 256 || cfg.MaxWait != 250*time.Millisecond || cfg.BatchMax != 32 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.ReadConcurrency <= 0 || cfg.RetryAfter != time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestBatchCoalescing pins the group-commit shape: mutations that pile up
// while the dispatcher is busy drain as one batch (one runner call),
// capped at BatchMax.
func TestBatchCoalescing(t *testing.T) {
	g := newGatedRunner()
	c := New(Config{MaxQueue: 16, MaxWait: 5 * time.Second, BatchMax: 4}, g.run)
	defer c.Close()

	first := submitAsync(c, context.Background(), 0)
	b1 := <-g.entered // dispatcher busy with the first mutation alone
	if len(b1) != 1 {
		t.Fatalf("first batch has %d payloads, want 1", len(b1))
	}
	// Five more pile up while the runner is blocked.
	var waiters []chan error
	for i := 1; i <= 5; i++ {
		waiters = append(waiters, submitAsync(c, context.Background(), i))
	}
	for c.Depth(ClassMutate) < 6 {
		time.Sleep(time.Millisecond)
	}
	g.release <- struct{}{}
	b2 := <-g.entered
	if len(b2) != 4 {
		t.Fatalf("coalesced batch has %d payloads, want BatchMax=4", len(b2))
	}
	g.release <- struct{}{}
	b3 := <-g.entered
	if len(b3) != 1 {
		t.Fatalf("final batch has %d payloads, want 1", len(b3))
	}
	g.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("first mutation: %v", err)
	}
	for i, w := range waiters {
		if err := <-w; err != nil {
			t.Fatalf("mutation %d: %v", i+1, err)
		}
	}
	if got := g.executed(); got != 6 {
		t.Fatalf("executed %d payloads, want 6", got)
	}
}

// TestQueueFullSheds proves the depth bound: with the dispatcher busy and
// the queue full, the next submission is rejected immediately — before
// any side effect — with ErrQueueFull.
func TestQueueFullSheds(t *testing.T) {
	g := newGatedRunner()
	c := New(Config{MaxQueue: 2, MaxWait: 5 * time.Second, BatchMax: 1}, g.run)
	defer c.Close()

	a := submitAsync(c, context.Background(), "a")
	<-g.entered
	b := submitAsync(c, context.Background(), "b")
	cc := submitAsync(c, context.Background(), "c")
	for c.Depth(ClassMutate) < 3 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	err := c.SubmitMutation(context.Background(), "d", nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission = %v, want ErrQueueFull", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("shed took %s, want immediate rejection", since)
	}
	for i := 0; i < 3; i++ {
		g.release <- struct{}{}
	}
	for i, ch := range []chan error{a, b, cc} {
		if err := <-ch; err != nil {
			t.Fatalf("queued mutation %d: %v", i, err)
		}
	}
	if got := g.executed(); got != 3 {
		t.Fatalf("executed %d payloads, want 3 (the shed one never ran)", got)
	}
}

// TestWaitExceeded pins the wait budget: a mutation stuck behind a slow
// batch is shed with ErrWaitExceeded and never executed.
func TestWaitExceeded(t *testing.T) {
	g := newGatedRunner()
	c := New(Config{MaxQueue: 8, MaxWait: 20 * time.Millisecond, BatchMax: 1}, g.run)
	defer c.Close()

	a := submitAsync(c, context.Background(), "a")
	<-g.entered
	err := c.SubmitMutation(context.Background(), "b", nil)
	if !errors.Is(err, ErrWaitExceeded) {
		t.Fatalf("stuck submission = %v, want ErrWaitExceeded", err)
	}
	g.release <- struct{}{}
	if err := <-a; err != nil {
		t.Fatalf("first mutation: %v", err)
	}
	// The abandoned task is discarded on dequeue, not executed.
	deadline := time.Now().Add(time.Second)
	for c.Depth(ClassMutate) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned task still pending")
		}
		time.Sleep(time.Millisecond)
	}
	if got := g.executed(); got != 1 {
		t.Fatalf("executed %d payloads, want 1 (the shed one never ran)", got)
	}
}

// TestCanceledWhileQueued pins deadline propagation: a client that gives
// up while queued gets ErrCanceled and its mutation never runs.
func TestCanceledWhileQueued(t *testing.T) {
	g := newGatedRunner()
	c := New(Config{MaxQueue: 8, MaxWait: 5 * time.Second, BatchMax: 1}, g.run)
	defer c.Close()

	a := submitAsync(c, context.Background(), "a")
	<-g.entered
	ctx, cancel := context.WithCancel(context.Background())
	b := submitAsync(c, ctx, "b")
	for c.Depth(ClassMutate) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-b; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled submission = %v, want ErrCanceled", err)
	}
	g.release <- struct{}{}
	if err := <-a; err != nil {
		t.Fatalf("first mutation: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for c.Depth(ClassMutate) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned task still pending")
		}
		time.Sleep(time.Millisecond)
	}
	if got := g.executed(); got != 1 {
		t.Fatalf("executed %d payloads, want 1 (the canceled one never ran)", got)
	}
}

func TestFailNextInjectsSheds(t *testing.T) {
	var ran atomic.Int32
	c := New(Config{MaxQueue: 8}, func(batch []any) { ran.Add(int32(len(batch))) })
	defer c.Close()
	c.FailNext(2)
	for i := 0; i < 2; i++ {
		if err := c.SubmitMutation(context.Background(), i, nil); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("armed submission %d = %v, want ErrQueueFull", i, err)
		}
	}
	if err := c.SubmitMutation(context.Background(), 2, nil); err != nil {
		t.Fatalf("submission after arming consumed: %v", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("%d payloads ran, want 1", ran.Load())
	}
}

func TestOnStartRunsOnlyForExecutedTasks(t *testing.T) {
	g := newGatedRunner()
	c := New(Config{MaxQueue: 8, MaxWait: 5 * time.Second, BatchMax: 1}, g.run)
	defer c.Close()
	var started atomic.Int32
	onStart := func() { started.Add(1) }
	ch := make(chan error, 1)
	go func() { ch <- c.SubmitMutation(context.Background(), "a", onStart) }()
	<-g.entered
	if started.Load() != 1 {
		t.Fatalf("onStart ran %d times before execution, want 1 (at dequeue)", started.Load())
	}
	c.FailNext(1)
	if err := c.SubmitMutation(context.Background(), "b", onStart); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("armed submission = %v", err)
	}
	g.release <- struct{}{}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if started.Load() != 1 {
		t.Fatalf("onStart ran %d times, want 1 (never for shed tasks)", started.Load())
	}
}

func TestAcquireRead(t *testing.T) {
	c := New(Config{MaxQueue: 2, MaxWait: 20 * time.Millisecond, ReadConcurrency: 1}, func([]any) {})
	defer c.Close()

	rel1, err := c.AcquireRead(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The single slot is held: the next read times out on the wait budget.
	if _, err := c.AcquireRead(context.Background()); !errors.Is(err, ErrWaitExceeded) {
		t.Fatalf("second read = %v, want ErrWaitExceeded", err)
	}
	// A canceled caller is shed with ErrCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.AcquireRead(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled read = %v, want ErrCanceled", err)
	}
	rel1()
	rel1() // idempotent: the slot releases once
	rel2, err := c.AcquireRead(context.Background())
	if err != nil {
		t.Fatalf("read after release: %v", err)
	}
	rel2()
}

// TestReadQueueBound: reads beyond MaxQueue+ReadConcurrency pending shed
// immediately instead of piling up.
func TestReadQueueBound(t *testing.T) {
	c := New(Config{MaxQueue: 1, MaxWait: time.Second, ReadConcurrency: 1}, func([]any) {})
	defer c.Close()
	rel, err := c.AcquireRead(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	waiting := make(chan error, 1)
	go func() {
		r, err := c.AcquireRead(context.Background())
		if err == nil {
			defer r()
		}
		waiting <- err
	}()
	for c.Depth(ClassRead) < 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.AcquireRead(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("read beyond bound = %v, want ErrQueueFull", err)
	}
	rel()
	if err := <-waiting; err != nil {
		t.Fatalf("queued read: %v", err)
	}
}

func TestDrainAndClose(t *testing.T) {
	g := newGatedRunner()
	// A short wait budget keeps the refusal probes below cycling until
	// they observe the drain; the accepted mutation is already claimed by
	// the dispatcher, so the budget cannot shed it.
	c := New(Config{MaxQueue: 8, MaxWait: 20 * time.Millisecond, BatchMax: 1}, g.run)

	a := submitAsync(c, context.Background(), "a")
	<-g.entered
	drainDone := make(chan error, 1)
	go func() { drainDone <- c.Drain(context.Background()) }()
	// New work of both classes is refused while draining. Probes racing
	// ahead of the drain flag are shed on the wait budget; retry until
	// the drain refusal shows up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.SubmitMutation(context.Background(), "late", nil)
		if errors.Is(err, ErrDraining) {
			break
		}
		if !errors.Is(err, ErrWaitExceeded) && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("mutation during drain = %v, want ErrDraining", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("mutation during drain still %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.AcquireRead(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("read during drain = %v, want ErrDraining", err)
	}
	g.release <- struct{}{}
	if err := <-a; err != nil {
		t.Fatalf("accepted mutation during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.Close()
	if err := c.SubmitMutation(context.Background(), "post", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close submission = %v, want ErrDraining", err)
	}
}

func TestDrainDeadline(t *testing.T) {
	g := newGatedRunner()
	c := New(Config{MaxQueue: 8, MaxWait: 5 * time.Second, BatchMax: 1}, g.run)
	defer func() {
		g.release <- struct{}{}
		c.Close()
	}()
	a := submitAsync(c, context.Background(), "a")
	<-g.entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with wedged runner = %v, want deadline exceeded", err)
	}
	_ = a
}

func TestRunnerPanicFailsBatchNotDispatcher(t *testing.T) {
	var calls atomic.Int32
	c := New(Config{MaxQueue: 8, BatchMax: 4}, func(batch []any) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
	})
	defer c.Close()
	err := c.SubmitMutation(context.Background(), "a", nil)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("mutation in panicking batch = %v, want panic error", err)
	}
	// The dispatcher survived: the next mutation executes normally.
	if err := c.SubmitMutation(context.Background(), "b", nil); err != nil {
		t.Fatalf("mutation after panic: %v", err)
	}
}

func TestInstrumentMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxQueue: 4}, func([]any) {})
	c.Instrument(reg)
	defer c.Close()
	c.FailNext(1)
	if err := c.SubmitMutation(context.Background(), "a", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatal(err)
	}
	if err := c.SubmitMutation(context.Background(), "b", nil); err != nil {
		t.Fatal(err)
	}
	rel, err := c.AcquireRead(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, frag := range []string{
		"policy_admit_depth{class=\"mutate\"}",
		"policy_admit_depth{class=\"read\"}",
		"policy_admit_shed_total{class=\"mutate\",reason=\"injected\"} 1",
		"policy_admit_batch_size",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("scrape missing %q:\n%s", frag, text)
		}
	}
}

// TestStressBoundedDepthNoLeaks hammers the controller at 4x saturation
// under -race: clients far outnumber queue slots, so most submissions
// shed, but the pending depth must never exceed MaxQueue plus one
// executing batch, every accepted mutation must execute exactly once,
// and after Drain+Close no goroutine may linger.
func TestStressBoundedDepthNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	const (
		maxQueue = 16
		batchMax = 4
		workers  = 4 * maxQueue // 4x saturation
		perW     = 25
	)
	var executed atomic.Int64
	c := New(Config{MaxQueue: maxQueue, MaxWait: 2 * time.Millisecond, BatchMax: batchMax},
		func(batch []any) {
			executed.Add(int64(len(batch)))
			time.Sleep(200 * time.Microsecond) // keep the queue saturated
		})

	var wg sync.WaitGroup
	var accepted, shed atomic.Int64
	var depthViolation atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if d := c.Depth(ClassMutate); d > maxQueue+batchMax {
					depthViolation.Store(int64(d))
				}
				err := c.SubmitMutation(context.Background(), fmt.Sprintf("%d-%d", w, i), nil)
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrWaitExceeded):
					shed.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if v := depthViolation.Load(); v != 0 {
		t.Errorf("queue depth reached %d, bound is %d", v, maxQueue+batchMax)
	}
	if accepted.Load() == 0 || shed.Load() == 0 {
		t.Errorf("accepted=%d shed=%d: the stress run must both admit and shed", accepted.Load(), shed.Load())
	}
	if executed.Load() != accepted.Load() {
		t.Errorf("executed %d mutations, accepted %d: must match exactly", executed.Load(), accepted.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain after storm: %v", err)
	}
	c.Close()

	// The dispatcher and every waiter are gone; allow the runtime a
	// moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// committingPayload is a Waiter whose commit finishes when gate closes.
type committingPayload struct{ gate chan struct{} }

func (p *committingPayload) Wait() { <-p.gate }

// TestWaiterPendingUntilCommitted: a Waiter payload is released, counted
// in Depth and held by Drain until its Wait returns, and the dispatcher
// runs at most one batch past a batch it has not seen commit.
func TestWaiterPendingUntilCommitted(t *testing.T) {
	var runs atomic.Int32
	c := New(Config{MaxQueue: 8, MaxWait: 5 * time.Second, BatchMax: 1}, func([]any) { runs.Add(1) })
	defer c.Close()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	p := make([]*committingPayload, 3)
	done := make([]chan error, 3)
	for i := range p {
		p[i] = &committingPayload{gate: make(chan struct{})}
		done[i] = submitAsync(c, context.Background(), p[i])
		if i < 2 {
			waitFor(fmt.Sprintf("batch %d to run", i), func() bool { return runs.Load() == int32(i+1) })
		}
	}
	waitFor("the third submission to queue", func() bool { return c.Depth(ClassMutate) == 3 })
	time.Sleep(20 * time.Millisecond)
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d batches ran while the first had not committed, want 2", n)
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()
	select {
	case err := <-done[0]:
		t.Fatalf("released before its Wait returned: %v", err)
	case <-drained:
		t.Fatal("Drain returned with commits outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	close(p[0].gate)
	if err := <-done[0]; err != nil {
		t.Fatal(err)
	}
	waitFor("the third batch to run", func() bool { return runs.Load() == 3 })
	close(p[1].gate)
	close(p[2].gate)
	for i := 1; i < 3; i++ {
		if err := <-done[i]; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := c.Depth(ClassMutate); d != 0 {
		t.Fatalf("depth %d after drain", d)
	}
}
