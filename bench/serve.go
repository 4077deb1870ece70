package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
	"policyflow/internal/transfer"
)

// serveClients is the closed-loop client count: a Pegasus transfer tool
// blocks on each reply, and the reference sandbox has two cores.
const serveClients = 2

// cycleClient drives the paper's full cycle against one server: advise 3
// fresh files + 1 resident one, report the 3, ask to clean up all 4, report
// the 3 approved cleanups. State returns to baseline after every cycle.
type cycleClient struct {
	id       int
	calls    cycleCalls
	rng      *rand.Rand
	resident int
	tr       *tracer
	run      *runState

	cycles   int
	adviseUs samples
	cycleUs  samples
	doneAt   []time.Time // completion time of each recorded cycle
}

// cycleCalls is the four-call policy interface as the cycle uses it. The
// serve workloads bind it to a policyhttp.Client (the context carries the
// trace); recover-failover binds it to the ReplicatedClient and, while
// building its WAL, to the engine itself.
type cycleCalls struct {
	adviseTransfers func(context.Context, []policy.TransferSpec) (*policy.TransferAdvice, error)
	reportTransfers func(context.Context, policy.CompletionReport) (*policy.ReportAck, error)
	adviseCleanups  func(context.Context, []policy.CleanupSpec) (*policy.CleanupAdvice, error)
	reportCleanups  func(context.Context, policy.CleanupReport) (*policy.ReportAck, error)
}

func callsOfClient(cl *policyhttp.Client) cycleCalls {
	return cycleCalls{cl.AdviseTransfersCtx, cl.ReportTransfersCtx, cl.AdviseCleanupsCtx, cl.ReportCleanupsCtx}
}

func callsOfAdvisor(a transfer.Advisor) cycleCalls {
	return cycleCalls{
		func(_ context.Context, s []policy.TransferSpec) (*policy.TransferAdvice, error) {
			return a.AdviseTransfers(s)
		},
		func(_ context.Context, r policy.CompletionReport) (*policy.ReportAck, error) {
			return a.ReportTransfers(r)
		},
		func(_ context.Context, s []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
			return a.AdviseCleanups(s)
		},
		func(_ context.Context, r policy.CleanupReport) (*policy.ReportAck, error) {
			return a.ReportCleanups(r)
		},
	}
}

// call times one client call and, when traced, records its root span.
func (c *cycleClient) call(op string, fn func(ctx context.Context) error) (time.Duration, error) {
	ctx, id, start := context.Background(), uint64(0), int64(0)
	if c.tr != nil {
		id, ctx = c.tr.rootCtx()
		start = c.tr.now()
	}
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.add(span{id, id, 0, "client." + op, "policyhttp", start, start + int64(d)})
	}
	c.run.op(err, op)
	return d, err
}

func (c *cycleClient) reset() { c.adviseUs, c.cycleUs, c.doneAt = nil, nil, nil }

// cycle runs one full cycle; a failed call abandons the rest of it.
func (c *cycleClient) cycle() {
	wf := fmt.Sprintf("wf-c%d", c.id)
	n := c.cycles
	c.cycles++
	specs := make([]policy.TransferSpec, 0, 4)
	for j := 0; j < 3; j++ {
		specs = append(specs, transferSpec(wf, fmt.Sprintf("c%d-%d-%d", c.id, n, j)))
	}
	specs = append(specs, transferSpec(wf, residentLFN(c.rng.Intn(c.resident))))

	start := time.Now()
	var adv *policy.TransferAdvice
	adviseTook, err := c.call("advise_transfers", func(ctx context.Context) (err error) {
		adv, err = c.calls.adviseTransfers(ctx, specs)
		return err
	})
	if err != nil {
		return
	}
	c.run.check(len(adv.Transfers) == 3 && len(adv.Removed) == 1 && adv.Removed[0].Reason == "already-staged",
		"advise: %d transfers, removed %+v", len(adv.Transfers), adv.Removed)
	ids := make([]string, len(adv.Transfers))
	for i, t := range adv.Transfers {
		ids[i] = t.ID
	}
	var ack *policy.ReportAck
	if _, err := c.call("report_transfers", func(ctx context.Context) (err error) {
		ack, err = c.calls.reportTransfers(ctx, policy.CompletionReport{TransferIDs: ids})
		return err
	}); err != nil {
		return
	}
	c.run.check(ack.Matched == 3, "report transfers matched %d", ack.Matched)

	cleanups := make([]policy.CleanupSpec, len(specs))
	for i, s := range specs {
		cleanups[i] = policy.CleanupSpec{RequestID: "c-" + s.RequestID, WorkflowID: wf, FileURL: s.DestURL}
	}
	var cadv *policy.CleanupAdvice
	if _, err := c.call("advise_cleanups", func(ctx context.Context) (err error) {
		cadv, err = c.calls.adviseCleanups(ctx, cleanups)
		return err
	}); err != nil {
		return
	}
	c.run.check(len(cadv.Cleanups) == 3 && len(cadv.Removed) == 1 && cadv.Removed[0].Reason == "in-use",
		"cleanup advise: %d cleanups, removed %+v", len(cadv.Cleanups), cadv.Removed)
	cids := make([]string, len(cadv.Cleanups))
	for i, cu := range cadv.Cleanups {
		cids[i] = cu.ID
	}
	if _, err := c.call("report_cleanups", func(ctx context.Context) (err error) {
		ack, err = c.calls.reportCleanups(ctx, policy.CleanupReport{CleanupIDs: cids})
		return err
	}); err != nil {
		return
	}
	c.run.check(ack.Matched == 3, "report cleanups matched %d", ack.Matched)
	c.adviseUs = append(c.adviseUs, float64(adviseTook)/1e3)
	end := time.Now()
	c.cycleUs = append(c.cycleUs, float64(end.Sub(start))/1e3)
	c.doneAt = append(c.doneAt, end)
}

// serveStack is one server plus its closed-loop clients.
type serveStack struct {
	node    *node
	clients []*cycleClient
	tps     []*http.Transport
	// baseline is the engine's fact count after the preload; every cycle
	// must return to it.
	baseline int
}

// setupServe builds the stack, preloads the resident files and warms up
// with a fixed number of cycles per client.
func setupServe(rs *runState, durable bool, tr *tracer) (*serveStack, error) {
	dir := ""
	if durable {
		dir = rs.dataDir("serve")
	}
	n, err := startNode(dir, tr)
	if err != nil {
		return nil, err
	}
	s := &serveStack{node: n}
	if err := preload(n.svc, rs.sizes.resident); err != nil {
		return nil, err
	}
	n.armFlush(tr)
	s.baseline = n.svc.FactCount()
	for i := 0; i < serveClients; i++ {
		cl, tp := newClient(n.url)
		s.tps = append(s.tps, tp)
		s.clients = append(s.clients, &cycleClient{id: i, calls: callsOfClient(cl), tr: tr, run: rs,
			rng: rand.New(rand.NewSource(rs.seed*1000 + int64(i))), resident: rs.sizes.resident})
	}
	s.drive(func(c *cycleClient) bool { return c.cycles < rs.sizes.warmCycles })
	return s, nil
}

// drive runs every client's closed loop while more(c) holds.
func (s *serveStack) drive(more func(*cycleClient) bool) {
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *cycleClient) {
			defer wg.Done()
			for more(c) {
				c.cycle()
			}
		}(c)
	}
	wg.Wait()
}

func (s *serveStack) stop() error {
	err := s.node.stop()
	if s.node.dir != "" {
		if rerr := os.RemoveAll(s.node.dir); err == nil {
			err = rerr
		}
	}
	for _, tp := range s.tps {
		tp.CloseIdleConnections()
	}
	return err
}

// servePhase is one measured interval on a serve stack.
type servePhase struct {
	cycles            int // completed within the phase
	elapsed           time.Duration
	adviseUs, cycleUs samples // every recorded cycle
	advise, cycle     windows // the same, cut into windows
	mem               memDelta
	firings           int64
	advised, suppress int
}

func (s *serveStack) measure(d time.Duration) servePhase {
	for _, c := range s.clients {
		c.reset()
	}
	firings := s.node.svc.RuleFirings()
	adv0, sup0 := s.node.svc.Stats()
	mem := readMem()
	start := time.Now()
	deadline := start.Add(d)
	s.drive(func(*cycleClient) bool { return time.Now().Before(deadline) })
	ph := servePhase{elapsed: time.Since(start), mem: memSince(mem)}
	ph.firings = s.node.svc.RuleFirings() - firings
	adv1, sup1 := s.node.svc.Stats()
	ph.advised, ph.suppress = adv1-adv0, sup1-sup0
	var done []time.Time
	for _, c := range s.clients {
		ph.adviseUs = append(ph.adviseUs, c.adviseUs...)
		ph.cycleUs = append(ph.cycleUs, c.cycleUs...)
		done = append(done, c.doneAt...)
	}
	ph.advise = cutWindows(ph.adviseUs, done, start, d)
	ph.cycle = cutWindows(ph.cycleUs, done, start, d)
	ph.cycles = len(ph.cycleUs)
	return ph
}

// verify is the end-of-run output check: Policy Memory is back at its
// baseline and, for a durable stack, a cold reopen of the data dir yields
// the live service's state byte for byte. It stops the stack.
func (s *serveStack) verify(rs *runState) error {
	snap := s.node.svc.Snapshot()
	rs.check(s.node.svc.FactCount() == s.baseline, "fact count %d, baseline %d", s.node.svc.FactCount(), s.baseline)
	rs.check(snap.InFlight == 0 && snap.PendingCleanups == 0, "in flight %d, pending cleanups %d", snap.InFlight, snap.PendingCleanups)
	rs.noteFlush(s.node)
	if s.node.store == nil {
		return s.stop()
	}
	live, err := stateBytes(s.node.svc)
	if err != nil {
		return err
	}
	if err := s.node.stop(); err != nil {
		return err
	}
	defer os.RemoveAll(s.node.dir)
	svc, ps, _, err := recoverStore(s.node.dir)
	if err != nil {
		return fmt.Errorf("cold reopen: %w", err)
	}
	defer ps.Close()
	cold, err := stateBytes(svc)
	if err != nil {
		return err
	}
	rs.check(bytes.Equal(live, cold), "cold reopen state differs from live state (%d vs %d bytes)", len(cold), len(live))
	return nil
}

// runServe is serve-durable and serve-memory: identical traffic and
// HTTP/admission stack, with or without the WAL behind the engine.
func runServe(rs *runState, durable bool) error {
	if rs.trace {
		return runServeTraced(rs, durable)
	}
	var setups []float64
	var stack *serveStack
	for i := 0; i < rs.sizes.setups; i++ {
		if stack != nil {
			if err := stack.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if stack, err = setupServe(rs, durable, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Live heap right after set-up, so it does not depend on how many cycles
	// the measured phase then fits in.
	heap := heapLiveMB()
	ph := stack.measure(rs.measureFor)
	if err := stack.verify(rs); err != nil {
		return err
	}
	p50 := func(s samples) float64 { return s.pct(50) }
	tail := func(s samples) float64 { return s.pct(tailPct[rs.workload]) }
	m := rs.metrics
	m.set("setup_s", median(setups))
	m.set("ops_per_s", float64(ph.cycles)/ph.elapsed.Seconds())
	m.set("op_p50_ms", ph.cycle.median(p50)/1e3)
	m.set("op_tail_ms", ph.cycle.median(tail)/1e3)
	m.set("wait_p50_us", ph.advise.median(p50))
	m.set("wait_tail_us", ph.advise.median(tail))
	m.set("allocs_per_op", float64(ph.mem.mallocs)/float64(ph.cycles))
	m.set("heap_live_mb", heap)
	rs.note("cycles", ph.cycles)
	return nil
}

// runServeTraced measures an untraced phase on a plain stack, then a traced
// phase of the same length on a fresh wrapped one (throughput depends on how
// long a stack has been running, so both start from set-up); the throughput
// ratio is the tracing overhead and the spans give the per-layer numbers.
func runServeTraced(rs *runState, durable bool) error {
	// The span buffer exists during both halves: it is tens of megabytes of
	// live heap, and the collector's pace follows the live heap.
	tr := newTracer()
	// A first set-up is thrown away, as in the untraced pass: the process's
	// first stack runs on memory the OS has not handed out yet, and slower.
	warm, err := setupServe(rs, durable, nil)
	if err != nil {
		return err
	}
	if err := warm.stop(); err != nil {
		return err
	}
	plain, err := setupServe(rs, durable, nil)
	if err != nil {
		return err
	}
	base := plain.measure(rs.measureFor / 2)
	if err := plain.stop(); err != nil {
		return err
	}

	stack, err := setupServe(rs, durable, tr)
	if err != nil {
		return err
	}
	tr.reset()
	ph := stack.measure(rs.measureFor / 2)
	facts := stack.node.svc.FactCount()
	if err := stack.verify(rs); err != nil {
		return err
	}
	if err := tr.write(rs.tracePath()); err != nil {
		return err
	}
	rs.check(tr.dropped == 0, "span buffer overflowed: %d spans dropped", tr.dropped)

	b := analyzeServe(tr.spans)
	rs.check(b.incomplete == 0, "%d traces lack a client, handler or batch span", b.incomplete)
	perReq := func(ns int64) float64 { return float64(ns) / float64(b.requests) / 1e3 }
	cycles := float64(ph.cycles)
	m := rs.metrics
	m.set("policyhttp.client_self_us", perReq(b.clientSelf))
	m.set("policyhttp.server_before_us", perReq(b.before))
	m.set("policyhttp.server_after_us", perReq(b.after))
	m.set("policyhttp.requests", float64(tr.requests))
	m.set("policyhttp.non2xx", float64(tr.non2xx))
	m.set("policyhttp.advise_p99_us", ph.adviseUs.pct(99))
	m.set("policyhttp.cycle_p99_us", ph.cycleUs.pct(99))
	m.set("admit.batches", float64(tr.batches))
	m.set("admit.batch_size_mean", float64(tr.batchItems)/float64(tr.batches))
	m.set("admit.shed", float64(rs.shed))
	m.set("policy.execute_self_us", perReq(b.executeSelf))
	m.set("policy.facts_resident", float64(facts))
	m.set("policy.suppressed_frac", float64(ph.suppress)/float64(ph.advised+ph.suppress))
	m.set("rules.firings_per_cycle", float64(ph.firings)/cycles)
	if durable {
		m.set("durable.append_us", float64(tr.appendNanos)/float64(tr.appends)/1e3)
		m.set("durable.sync_us", float64(tr.syncNano)/float64(tr.syncs)/1e3)
		m.set("durable.appends_per_cycle", float64(tr.appends)/cycles)
		m.set("durable.syncs_per_cycle", float64(tr.syncs)/cycles)
	}
	ph.mem.report(m, cycles)
	m.set("trace.overhead_frac", 1-(cycles/ph.elapsed.Seconds())/(float64(base.cycles)/base.elapsed.Seconds()))
	m.set("trace.closure_frac",
		float64(b.clientSelf+b.before+b.executeSelf+b.appendNs+b.syncNs+b.after)/float64(b.client))
	rs.note("cycles", ph.cycles)
	rs.note("traced_requests", b.requests)
	return nil
}
