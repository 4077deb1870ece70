package policyhttp

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"policyflow/internal/durable"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// collector is an in-memory obs.Tracer shared by the server and its store.
type collector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collector) Events() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// spansByName collects span events from a run, keyed by span name.
func spansByName(events []obs.Event) map[string][]obs.Event {
	out := make(map[string][]obs.Event)
	for _, e := range events {
		if e.Type == obs.EventSpan {
			out[e.Name] = append(out[e.Name], e)
		}
	}
	return out
}

// TestTracePropagationAcrossClientServer is the tentpole's end-to-end
// check over a real httptest round trip: a caller-minted span context
// rides the Traceparent header through the client, and every span the
// server side emits — the http.server envelope, the policy operation,
// WAL append, rule firing, group-commit sync — plus the lifecycle events
// and the decision record all carry the caller's trace ID. The WAL fsync
// span is deliberately its own trace (it covers a batch of requests) and
// joins the request trace through its WAL sequence.
func TestTracePropagationAcrossClientServer(t *testing.T) {
	cfg := policy.DefaultConfig()
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	ps, _, err := durable.OpenPolicyStore(t.TempDir(), svc, durable.Options{
		Fsync:  true,
		Tracer: &col,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	server := NewServerWith(svc, nil, obs.NewRegistry(), &col)
	server.SetDurable(ps)
	ts := httptest.NewServer(server)
	defer ts.Close()
	c := NewClient(ts.URL)

	root := obs.NewSpanContext()
	ctx := obs.ContextWithSpan(context.Background(), root)
	adv, err := c.AdviseTransfersCtx(ctx, []policy.TransferSpec{testSpec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 1 {
		t.Fatalf("advised %d transfers", len(adv.Transfers))
	}

	spans := spansByName(col.Events())
	for _, name := range []string{"http.server", "policy.advise_transfers", "wal.append", "rules.fire", "wal.sync"} {
		got := spans[name]
		if len(got) != 1 {
			t.Fatalf("span %s emitted %d times, want 1 (have: %v)", name, len(got), spanNames(col.Events()))
		}
		if got[0].TraceID != root.TraceID {
			t.Errorf("span %s carries trace %s, want caller trace %s", name, got[0].TraceID, root.TraceID)
		}
		if got[0].SpanID == "" {
			t.Errorf("span %s has no span ID", name)
		}
	}
	hs := spans["http.server"][0]
	if hs.Endpoint != "POST /v1/transfers" || hs.Status != 200 {
		t.Errorf("http.server span endpoint/status = %q/%d", hs.Endpoint, hs.Status)
	}
	// The policy op is a child of the http.server span, which in turn
	// descends from the client's per-call span (same trace, not root's
	// span ID — the client mints a child span ID per logical call).
	op := spans["policy.advise_transfers"][0]
	if op.ParentSpanID != hs.SpanID {
		t.Errorf("policy span parent %s, want http.server span %s", op.ParentSpanID, hs.SpanID)
	}
	if hs.ParentSpanID == "" || hs.ParentSpanID == root.SpanID {
		t.Errorf("http.server parent %s: must descend from the client's per-call span, not the caller root", hs.ParentSpanID)
	}

	// The WAL append span names the sequence the mutation was logged
	// under; the fsync span is a root span of its own trace covering the
	// same (or a later) durable sequence.
	appendSpan := spans["wal.append"][0]
	if appendSpan.WALSeq == 0 {
		t.Error("wal.append span carries no WAL sequence")
	}
	fsync := spans["wal.fsync"]
	if len(fsync) == 0 {
		t.Fatal("no wal.fsync span emitted")
	}
	for _, f := range fsync {
		if f.TraceID == root.TraceID {
			t.Error("wal.fsync joined the request trace; it must be its own root (it covers a batch)")
		}
		if f.ParentSpanID != "" {
			t.Errorf("wal.fsync has parent %s, want root span", f.ParentSpanID)
		}
	}
	if last := fsync[len(fsync)-1]; last.WALSeq < appendSpan.WALSeq {
		t.Errorf("fsync covers WAL seq %d, append logged %d", last.WALSeq, appendSpan.WALSeq)
	}

	// Lifecycle events and the decision record join the same trace.
	for _, e := range col.Events() {
		if e.Type == obs.EventSubmitted || e.Type == obs.EventAdvised {
			if e.TraceID != root.TraceID {
				t.Errorf("%s event carries trace %q, want %s", e.Type, e.TraceID, root.TraceID)
			}
		}
	}
	recs := svc.Decisions(0)
	if len(recs) != 1 {
		t.Fatalf("%d decision records, want 1", len(recs))
	}
	if recs[0].TraceID != root.TraceID {
		t.Errorf("decision record trace %s, want %s", recs[0].TraceID, root.TraceID)
	}
	if recs[0].WALSeq != appendSpan.WALSeq {
		t.Errorf("decision record WAL seq %d, append span %d", recs[0].WALSeq, appendSpan.WALSeq)
	}

	// A context-free call still traces: the client mints a fresh root, so
	// the server spans share one trace that is not the first call's.
	if _, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(2, "wf1")}); err != nil {
		t.Fatal(err)
	}
	spans = spansByName(col.Events())
	ops := spans["policy.advise_transfers"]
	if len(ops) != 2 {
		t.Fatalf("%d policy spans after second call", len(ops))
	}
	second := ops[1]
	if second.TraceID == "" || second.TraceID == root.TraceID {
		t.Errorf("second call trace %q: want fresh non-empty trace", second.TraceID)
	}
	if hs2 := spans["http.server"][1]; hs2.TraceID != second.TraceID {
		t.Errorf("second http.server span trace %s != policy span trace %s", hs2.TraceID, second.TraceID)
	}
}

func spanNames(events []obs.Event) []string {
	var names []string
	for _, e := range events {
		if e.Type == obs.EventSpan {
			names = append(names, e.Name)
		}
	}
	return names
}
