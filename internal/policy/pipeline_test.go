package policy_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

// The tests in this file pin the admitted commit path from the outside:
// submitters go through a real admission controller into
// policyhttp.ServiceRunner, and the service logs into syncDouble, which
// records exactly which records a returned Sync made durable. A member is
// "released" when SubmitMutation returns: from then on its submitter reads
// Result and Err.

// syncDouble is a policy.MutationLog that numbers appends and tracks the
// synced watermark: the highest seq a successful Sync has returned for.
// Sync calls can be held (they block until released) or failed once at a
// chosen seq.
type syncDouble struct {
	mu       sync.Mutex
	cond     *sync.Cond
	seqOf    map[string]uint64 // first RequestID of an advise → its seq
	appended uint64
	synced   uint64
	holding  bool
	held     int    // Sync calls blocked by the hold right now
	failAt   uint64 // the Sync for this seq fails (0 = none)
	jitter   bool   // sleep up to 300 µs per Sync, so syncs overlap
	// early plants the bug the checks must catch: Sync reports success
	// before the record is durable, and the watermark catches up later.
	early bool
}

func newSyncDouble() *syncDouble {
	d := &syncDouble{seqOf: map[string]uint64{}}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *syncDouble) Append(op string, payload any) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.appended++
	if specs, ok := payload.([]policy.TransferSpec); ok && len(specs) > 0 {
		d.seqOf[specs[0].RequestID] = d.appended
	}
	d.cond.Broadcast()
	return d.appended, nil
}

func (d *syncDouble) Sync(seq uint64) error {
	d.mu.Lock()
	if d.holding {
		d.held++
		d.cond.Broadcast()
		for d.holding {
			d.cond.Wait()
		}
		d.held--
	}
	jitter, early := d.jitter, d.early
	if seq == d.failAt {
		d.failAt = 0
		d.mu.Unlock()
		return errors.New("injected sync failure")
	}
	d.mu.Unlock()
	if jitter {
		time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
	}
	if early {
		time.AfterFunc(2*time.Millisecond, func() { d.markSynced(seq) })
		return nil
	}
	d.markSynced(seq)
	return nil
}

func (d *syncDouble) markSynced(seq uint64) {
	d.mu.Lock()
	if seq > d.synced {
		d.synced = seq
	}
	d.mu.Unlock()
}

func (d *syncDouble) hold() {
	d.mu.Lock()
	d.holding = true
	d.mu.Unlock()
}

func (d *syncDouble) release() {
	d.mu.Lock()
	d.holding = false
	d.cond.Broadcast()
	d.mu.Unlock()
}

// await waits until cond holds (checked under d.mu) or the timeout passes.
func (d *syncDouble) await(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer wake.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		d.cond.Wait()
	}
	return true
}

func (d *syncDouble) state(rid string) (seq, synced uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seqOf[rid], d.synced
}

// pipelineRig is one service behind admission, logging into a syncDouble.
type pipelineRig struct {
	svc *policy.Service
	log *syncDouble
	ctl *admit.Controller
}

func newPipelineRig(t *testing.T, batchMax int) *pipelineRig {
	t.Helper()
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := &pipelineRig{svc: svc, log: newSyncDouble()}
	svc.SetMutationLog(r.log)
	r.ctl = admit.New(admit.Config{MaxQueue: 1024, MaxWait: time.Minute, BatchMax: batchMax},
		policyhttp.ServiceRunner(svc))
	t.Cleanup(func() {
		r.log.release()
		r.ctl.Close()
	})
	return r
}

func adviseOne(rid string) *policy.BatchMutation {
	return &policy.BatchMutation{Ctx: context.Background(), Op: policy.OpAdviseTransfers,
		Request: []policy.TransferSpec{{RequestID: rid, WorkflowID: "wf-pipe",
			SourceURL: "gsiftp://src.example.org/" + rid, DestURL: "file://dst.example.org/" + rid,
			SizeBytes: 1 << 20}}}
}

// submitAsync submits m; the returned channel receives SubmitMutation's
// error once m is released.
func (r *pipelineRig) submitAsync(m *policy.BatchMutation) <-chan error {
	done := make(chan error, 1)
	go func() { done <- r.ctl.SubmitMutation(context.Background(), m, nil) }()
	return done
}

// releaseChecker checks, at the moment a member is released, that (a) a
// Sync covering its seq has returned and (b) every record logged ahead of
// it is committed: its decision record is in the ring.
type releaseChecker struct {
	rig        *pipelineRig
	mu         sync.Mutex
	violations []string
}

func (c *releaseChecker) released(rid string) {
	seq, synced := c.rig.log.state(rid)
	var bad []string
	if seq == 0 {
		bad = append(bad, fmt.Sprintf("%s released but never logged", rid))
	} else if synced < seq {
		bad = append(bad, fmt.Sprintf("%s (seq %d) released with the watermark at %d", rid, seq, synced))
	}
	committed := map[uint64]bool{}
	for _, d := range c.rig.svc.Decisions(policy.DefaultDecisionRing) {
		committed[d.WALSeq] = true
	}
	for s := uint64(1); s <= seq; s++ {
		if !committed[s] {
			bad = append(bad, fmt.Sprintf("%s (seq %d) released before seq %d committed", rid, seq, s))
			break
		}
	}
	if len(bad) > 0 {
		c.mu.Lock()
		c.violations = append(c.violations, bad...)
		c.mu.Unlock()
	}
}

// runConcurrent drives submitters × perSubmitter advises through admission
// with overlapping, jittered syncs and returns the checker's violations.
func runConcurrent(t *testing.T, early bool) []string {
	const submitters, perSubmitter = 8, 40
	r := newPipelineRig(t, 4)
	r.log.jitter, r.log.early = true, early
	c := &releaseChecker{rig: r}
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				rid := fmt.Sprintf("r%d-%03d", w, i)
				m := adviseOne(rid)
				if err := r.ctl.SubmitMutation(context.Background(), m, nil); err != nil {
					t.Errorf("%s: submit: %v", rid, err)
					return
				}
				c.released(rid)
				if m.Err != nil {
					t.Errorf("%s: %v", rid, m.Err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Commit order is log order: the decision ring holds every record,
	// in strictly increasing seq.
	recs := r.svc.Decisions(policy.DefaultDecisionRing)
	if len(recs) != submitters*perSubmitter {
		t.Fatalf("%d decision records, want %d", len(recs), submitters*perSubmitter)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].WALSeq <= recs[i-1].WALSeq {
			t.Fatalf("decision ring out of log order: seq %d after %d", recs[i].WALSeq, recs[i-1].WALSeq)
		}
	}
	return c.violations
}

// TestPipelineReleaseAfterDurableInLogOrder: N concurrent submitters, and
// no member is released before a Sync covering it has returned or before
// everything logged ahead of it has committed.
func TestPipelineReleaseAfterDurableInLogOrder(t *testing.T) {
	if v := runConcurrent(t, false); len(v) > 0 {
		t.Fatalf("%d release violations, first: %s", len(v), v[0])
	}
}

// TestPipelineCheckerCatchesEarlyRelease is the self-test: with a log that
// acknowledges a Sync before the record is durable, members are released
// early, and the checker must say so.
func TestPipelineCheckerCatchesEarlyRelease(t *testing.T) {
	if v := runConcurrent(t, true); len(v) == 0 {
		t.Fatal("a planted early release went unnoticed")
	}
}

// TestPipelineAppliesNextBatchWhileSyncHeld: while batch N's Sync is held,
// the dispatcher applies and appends batch N+1 instead of waiting for the
// flush. Neither member is released until the hold ends.
func TestPipelineAppliesNextBatchWhileSyncHeld(t *testing.T) {
	r := newPipelineRig(t, 1)
	r.log.hold()
	a, b := adviseOne("a"), adviseOne("b")
	doneA := r.submitAsync(a)
	if !r.log.await(5*time.Second, func() bool { return r.log.held == 1 }) {
		t.Fatal("batch N never reached its Sync")
	}
	doneB := r.submitAsync(b)
	if !r.log.await(2*time.Second, func() bool { return r.log.appended == 2 }) {
		t.Fatal("batch N+1 was not applied and appended while batch N's Sync was held")
	}
	select {
	case <-doneA:
		t.Fatal("batch N released while its Sync was held")
	case <-doneB:
		t.Fatal("batch N+1 released while batch N's Sync was held")
	case <-time.After(20 * time.Millisecond):
	}
	r.log.release()
	for name, done := range map[string]<-chan error{"a": doneA, "b": doneB} {
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if a.Err != nil || b.Err != nil {
		t.Fatalf("a: %v, b: %v", a.Err, b.Err)
	}
}

// TestPipelineSyncFailureFailsBatchesBehind: a failed Sync for batch N
// fails N and the batch pipelined behind it, although that batch's own
// Sync succeeded: nothing logged after a record that is not durable may
// be acknowledged.
func TestPipelineSyncFailureFailsBatchesBehind(t *testing.T) {
	r := newPipelineRig(t, 1)
	r.log.hold()
	r.log.failAt = 1
	a, b := adviseOne("a"), adviseOne("b")
	doneA := r.submitAsync(a)
	if !r.log.await(5*time.Second, func() bool { return r.log.held == 1 }) {
		t.Fatal("batch N never reached its Sync")
	}
	doneB := r.submitAsync(b)
	// Batch N+1 is pipelined behind N only if it was applied while N's
	// Sync was held; a dispatcher that waits for the flush applies it
	// after N has failed, and it may then succeed on its own.
	pipelined := r.log.await(2*time.Second, func() bool { return r.log.appended == 2 })
	r.log.release()
	for name, done := range map[string]<-chan error{"a": doneA, "b": doneB} {
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	failed := map[string]*policy.BatchMutation{"a": a}
	if pipelined {
		failed["b"] = b
	}
	for name, m := range failed {
		if !errors.Is(m.Err, policy.ErrMutationLog) || m.Result != nil {
			t.Errorf("%s: result %v, err %v; want a mutation-log failure and no result", name, m.Result, m.Err)
		}
	}
	for _, d := range r.svc.Decisions(policy.DefaultDecisionRing) {
		if d.WALSeq == 1 || pipelined {
			t.Errorf("decision record committed for failed seq %d", d.WALSeq)
		}
	}
}

// TestPipelineUnloggedBatchWaitsForDurable: a batch that logs nothing
// (here, a request validation rejects) is still not released before the
// batch logged ahead of it is durable.
func TestPipelineUnloggedBatchWaitsForDurable(t *testing.T) {
	r := newPipelineRig(t, 1)
	r.log.hold()
	a := adviseOne("a")
	invalid := &policy.BatchMutation{Ctx: context.Background(), Op: policy.OpAdviseTransfers,
		Request: []policy.TransferSpec{{RequestID: "no-urls"}}}
	doneA := r.submitAsync(a)
	if !r.log.await(5*time.Second, func() bool { return r.log.held == 1 }) {
		t.Fatal("batch N never reached its Sync")
	}
	doneInvalid := r.submitAsync(invalid)
	select {
	case <-doneInvalid:
		t.Fatal("an unlogged batch was released while the batch ahead of it was not durable")
	case <-time.After(50 * time.Millisecond):
	}
	r.log.release()
	for _, done := range []<-chan error{doneA, doneInvalid} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if a.Err != nil || !errors.Is(invalid.Err, policy.ErrInvalidRequest) {
		t.Fatalf("a: %v, invalid: %v", a.Err, invalid.Err)
	}
}
