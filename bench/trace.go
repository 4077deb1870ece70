package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// The traced pass wraps each layer boundary from outside: nothing in the
// program under test is edited. Spans go into one preallocated buffer and
// are written out when the run ends. A nil *tracer is the untraced pass;
// every wrapper constructor returns its argument unchanged for it.

// span is one interval at a layer boundary. Spans of one request (or one
// simulation, or one failover round) share Trace; the root's ID equals it.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the buffer: serve-memory, the busiest workload, records
// about 20k spans a second for half of the measured time.
const maxSpans = 300_000

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
	// batch is the admission batch the dispatcher is executing, nil between
	// batches; WAL appends and syncs made meanwhile are its children.
	batch *batchTrace

	// Counts taken at the same boundaries as the spans.
	requests, non2xx      int64
	batches, batchItems   int64
	appends, syncs        int64
	appendNanos, syncNano int64
}

type batchTrace struct {
	children []span // durable.append / durable.sync, Trace and Parent unset
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.addLocked(s)
	t.mu.Unlock()
}

func (t *tracer) addLocked(s span) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// reset forgets everything recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.requests, t.non2xx, t.batches, t.batchItems = 0, 0, 0, 0
	t.appends, t.syncs, t.appendNanos, t.syncNano = 0, 0, 0, 0
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rootCtx starts a trace: it returns the trace ID (also the root span's ID)
// and a context whose span context makes policyhttp.Client send the ID in
// its Traceparent header.
func (t *tracer) rootCtx() (uint64, context.Context) {
	id := t.newID()
	sc := obs.SpanContext{TraceID: fmt.Sprintf("%032x", id), SpanID: fmt.Sprintf("%016x", id)}
	return id, obs.ContextWithSpan(context.Background(), sc)
}

// traceOf extracts the trace ID rootCtx put into a Traceparent header
// ("00-<32 hex>-<16 hex>-01"); 0 for requests the benchmark did not tag.
func traceOf(r *http.Request) uint64 {
	parts := strings.Split(r.Header.Get(obs.TraceparentHeader), "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return 0
	}
	id, err := strconv.ParseUint(parts[1][16:], 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// reqTrace rides the request context from the handler wrapper to the batch
// runner wrapper (policy.BatchMutation.Ctx is the request context).
type reqTrace struct {
	trace  uint64
	handle uint64 // the server.handle span's ID
}

type reqTraceKey struct{}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler records server.handle around the whole policyhttp.Server and
// counts requests and non-2xx answers.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rq := &reqTrace{trace: traceOf(r), handle: t.newID()}
		sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := t.now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqTraceKey{}, rq)))
		end := t.now()
		t.mu.Lock()
		t.requests++
		if sw.code < 200 || sw.code > 299 {
			t.non2xx++
		}
		if rq.trace != 0 {
			t.addLocked(span{rq.trace, rq.handle, rq.trace, "server.handle", "policyhttp", start, end})
		}
		t.mu.Unlock()
	})
}

// traceRunner records admit.run around policyhttp.ServiceRunner's batch
// runner: one span per request in the batch (each waited for all of it),
// with the batch's WAL appends and sync copied beneath it.
func traceRunner(t *tracer, run admit.BatchRunner) admit.BatchRunner {
	if t == nil {
		return run
	}
	return func(batch []any) {
		b := &batchTrace{}
		t.mu.Lock()
		t.batch = b
		t.mu.Unlock()
		start := t.now()
		run(batch)
		end := t.now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.batch = nil
		t.batches++
		t.batchItems += int64(len(batch))
		for _, p := range batch {
			m, ok := p.(*policy.BatchMutation)
			if !ok || m.Ctx == nil {
				continue
			}
			rq, _ := m.Ctx.Value(reqTraceKey{}).(*reqTrace)
			if rq == nil || rq.trace == 0 {
				continue
			}
			id := t.newID()
			t.addLocked(span{rq.trace, id, rq.handle, "admit.run", "admit", start, end})
			for _, c := range b.children {
				c.Trace, c.ID, c.Parent = rq.trace, t.newID(), id
				t.addLocked(c)
			}
		}
	}
}

// flushLog is the benchmark's policy.MutationLog: the durable store plus
// the modelled device flush after each Sync, in both passes. When traced it
// also records durable.append / durable.sync under the running batch.
type flushLog struct {
	inner policy.MutationLog
	t     *tracer

	flushes    atomic.Int64
	flushNanos atomic.Int64 // observed, so sleep granularity is on record
}

func (l *flushLog) Append(op string, payload any) (uint64, error) {
	if l.t == nil {
		return l.inner.Append(op, payload)
	}
	start := l.t.now()
	seq, err := l.inner.Append(op, payload)
	l.t.walChild("durable.append", start, l.t.now())
	return seq, err
}

func (l *flushLog) Sync(seq uint64) error {
	var start int64
	if l.t != nil {
		start = l.t.now()
	}
	err := l.inner.Sync(seq)
	slept := time.Now()
	time.Sleep(modelledFlush)
	l.flushes.Add(1)
	l.flushNanos.Add(int64(time.Since(slept)))
	if l.t != nil {
		l.t.walChild("durable.sync", start, l.t.now())
	}
	return err
}

func (t *tracer) walChild(name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == "durable.append" {
		t.appends++
		t.appendNanos += end - start
	} else {
		t.syncs++
		t.syncNano += end - start
	}
	if t.batch != nil {
		t.batch.children = append(t.batch.children, span{Name: name, Layer: "durable", Start: start, End: end})
	}
}

// timedAdvisor wraps the in-process policy service the simulated transfer
// tool consults (embed-montage). Call durations are always collected (they
// are the workload's wait metric); spans only when traced.
type timedAdvisor struct {
	svc   *policy.Service
	t     *tracer
	trace uint64 // the sim.run root span

	byOp       [4]samples  // call wall times, us, indexed by advisorOps
	adviseDone []time.Time // when each AdviseTransfers call returned
}

var advisorOps = [4]string{"advise_transfers", "report_transfers", "advise_cleanups", "report_cleanups"}

func (a *timedAdvisor) record(op int, start time.Time) {
	d := time.Since(start)
	a.byOp[op] = append(a.byOp[op], float64(d)/1e3)
	if op == 0 {
		a.adviseDone = append(a.adviseDone, start.Add(d))
	}
	if a.t != nil {
		end := a.t.now()
		a.t.add(span{a.trace, a.t.newID(), a.trace, "policy." + advisorOps[op], "policy", end - int64(d), end})
	}
}

func (a *timedAdvisor) AdviseTransfers(specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	defer a.record(0, time.Now())
	return a.svc.AdviseTransfers(specs)
}

func (a *timedAdvisor) ReportTransfers(r policy.CompletionReport) (*policy.ReportAck, error) {
	defer a.record(1, time.Now())
	return a.svc.ReportTransfers(r)
}

func (a *timedAdvisor) AdviseCleanups(specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	defer a.record(2, time.Now())
	return a.svc.AdviseCleanups(specs)
}

func (a *timedAdvisor) ReportCleanups(r policy.CleanupReport) (*policy.ReportAck, error) {
	defer a.record(3, time.Now())
	return a.svc.ReportCleanups(r)
}

// The PTT prefers the context variants when its advisor has them, as
// *policy.Service does; keep it on that path.

func (a *timedAdvisor) AdviseTransfersCtx(ctx context.Context, specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	defer a.record(0, time.Now())
	return a.svc.AdviseTransfersCtx(ctx, specs)
}

func (a *timedAdvisor) ReportTransfersCtx(ctx context.Context, r policy.CompletionReport) (*policy.ReportAck, error) {
	defer a.record(1, time.Now())
	return a.svc.ReportTransfersCtx(ctx, r)
}

func (a *timedAdvisor) AdviseCleanupsCtx(ctx context.Context, specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	defer a.record(2, time.Now())
	return a.svc.AdviseCleanupsCtx(ctx, specs)
}

func (a *timedAdvisor) ReportCleanupsCtx(ctx context.Context, r policy.CleanupReport) (*policy.ReportAck, error) {
	defer a.record(3, time.Now())
	return a.svc.ReportCleanupsCtx(ctx, r)
}

// serveBreakdown is where a request's time went, summed over the complete
// traces of a traced serve pass (nanoseconds).
type serveBreakdown struct {
	requests, incomplete          int
	client, clientSelf            int64
	before, after                 int64
	executeSelf, appendNs, syncNs int64
}

// analyzeServe derives per-layer self times from the span tree
// client.<op> > server.handle > admit.run > durable.{append,sync}: a layer's
// self time is its span minus the part its children cover.
func analyzeServe(spans []span) serveBreakdown {
	type req struct {
		client, handle, run *span
		appendNs, syncNs    int64
	}
	reqs := make(map[uint64]*req)
	get := func(trace uint64) *req {
		r := reqs[trace]
		if r == nil {
			r = &req{}
			reqs[trace] = r
		}
		return r
	}
	for i := range spans {
		s := &spans[i]
		r := get(s.Trace)
		switch {
		case strings.HasPrefix(s.Name, "client."):
			r.client = s
		case s.Name == "server.handle":
			r.handle = s
		case s.Name == "admit.run":
			r.run = s
		case s.Name == "durable.append":
			r.appendNs += s.End - s.Start
		case s.Name == "durable.sync":
			r.syncNs += s.End - s.Start
		}
	}
	var b serveBreakdown
	for _, r := range reqs {
		if r.client == nil || r.handle == nil || r.run == nil {
			b.incomplete++
			continue
		}
		client := r.client.End - r.client.Start
		handle := r.handle.End - r.handle.Start
		run := r.run.End - r.run.Start
		b.requests++
		b.client += client
		b.clientSelf += client - handle
		b.before += r.run.Start - r.handle.Start
		b.after += r.handle.End - r.run.End
		b.executeSelf += run - r.appendNs - r.syncNs
		b.appendNs += r.appendNs
		b.syncNs += r.syncNs
	}
	return b
}
