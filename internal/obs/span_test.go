package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() || len(sc.TraceID) != 32 || len(sc.SpanID) != 16 {
		t.Fatalf("minted span context invalid: %+v", sc)
	}
	// A child of the span in ctx keeps its trace and gets a span of its own.
	got, ok := ParseTraceparent(NewTraceparent(ContextWithSpan(context.Background(), sc)))
	if !ok || got.TraceID != sc.TraceID || got.SpanID == sc.SpanID {
		t.Fatalf("child header parsed as %+v ok=%v, want trace %s and a new span", got, ok, sc.TraceID)
	}
	// Without a span in ctx the header roots a fresh trace.
	root, ok := ParseTraceparent(NewTraceparent(context.Background()))
	if !ok || root.TraceID == sc.TraceID {
		t.Fatalf("root header parsed as %+v ok=%v", root, ok)
	}
	if n := testing.AllocsPerRun(100, func() { NewTraceparent(context.Background()) }); n != 1 {
		t.Fatalf("NewTraceparent allocates %v times, want 1", n)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := NewSpanContext()
	cases := []string{
		"",
		"garbage",
		"00-" + valid.TraceID + "-" + valid.SpanID,                    // missing flags
		"0-" + valid.TraceID + "-" + valid.SpanID + "-01",             // short version
		"00-" + valid.TraceID[:31] + "-" + valid.SpanID + "-01",       // short trace
		"00-" + strings.Repeat("0", 32) + "-" + valid.SpanID + "-01",  // zero trace
		"00-" + valid.TraceID + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + strings.Repeat("g", 32) + "-" + valid.SpanID + "-01",  // non-hex
	}
	for _, v := range cases {
		if sc, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %+v", v, sc)
		}
	}
	// Any version and uppercase hex are accepted; IDs come back lowercased.
	up := "EF-" + strings.ToUpper(valid.TraceID) + "-" + strings.ToUpper(valid.SpanID) + "-FF"
	if sc, ok := ParseTraceparent(up); !ok || sc != valid {
		t.Fatalf("uppercase variant parsed as %+v ok=%v, want %+v", sc, ok, valid)
	}
}

func TestStartSpanZeroCostWhenDisabled(t *testing.T) {
	ctx := context.Background()
	got, span := StartSpan(ctx, nil, "noop")
	if span != nil {
		t.Fatal("nil tracer with no parent returned a live span")
	}
	if got != ctx {
		t.Fatal("context was replaced on the disabled path")
	}
	// The nil span is fully inert.
	span.SetWALSeq(7)
	span.End()
	if sc := span.Context(); sc.Valid() {
		t.Fatalf("nil span has a context: %+v", sc)
	}
}

// TestStartSpanPropagatesWithoutTracer pins the untraced fast path: with
// no tracer StartSpan hands back the caller's context as it was — same
// trace, same parent span, no allocation — whether or not it carries a
// trace. A traced layer further in therefore parents its span to the
// caller's emitted span, never to an ID that no event carries.
func TestStartSpanPropagatesWithoutTracer(t *testing.T) {
	parent := NewSpanContext()
	for _, ctx := range []context.Context{context.Background(), ContextWithSpan(context.Background(), parent)} {
		got, span := StartSpan(ctx, nil, "child")
		if span != nil {
			t.Fatal("nil tracer returned a live span")
		}
		if got != ctx {
			t.Fatal("nil tracer replaced the context")
		}
		if n := testing.AllocsPerRun(100, func() { StartSpan(ctx, nil, "child") }); n != 0 {
			t.Fatalf("untraced StartSpan allocates %v times, want 0", n)
		}
		if sc, ok := SpanFromContext(got); ok != (ctx != context.Background()) || (ok && sc != parent) {
			t.Fatalf("context after untraced span carries %+v ok=%v, want the caller's %+v", sc, ok, parent)
		}
	}

	var col Collector
	ctx, outer := StartSpan(context.Background(), &col, "outer")
	ctx, middle := StartSpan(ctx, nil, "middle")
	_, inner := StartSpan(ctx, &col, "inner")
	inner.End()
	middle.End()
	outer.End()
	events := col.Events()
	if len(events) != 2 {
		t.Fatalf("emitted %d spans, want inner and outer only", len(events))
	}
	in, out := events[0], events[1]
	if in.TraceID != out.TraceID || in.ParentSpanID != out.SpanID {
		t.Fatalf("inner span %s/%s (parent %s) is not a child of the emitted outer span %s/%s",
			in.TraceID, in.SpanID, in.ParentSpanID, out.TraceID, out.SpanID)
	}
}

func TestSpanParentChildEmission(t *testing.T) {
	var col Collector
	ctx, root := StartSpan(context.Background(), &col, "root")
	ctx, child := StartSpan(ctx, &col, "child")
	child.SetWALSeq(42)
	child.End()
	root.End()
	child.End() // second End is ignored

	events := col.Events()
	if len(events) != 2 {
		t.Fatalf("emitted %d events, want 2 (double End must not re-emit)", len(events))
	}
	ce, re := events[0], events[1]
	if ce.Name != "child" || re.Name != "root" {
		t.Fatalf("emission order = %q, %q; spans end inside out", ce.Name, re.Name)
	}
	if ce.Type != EventSpan || re.Type != EventSpan {
		t.Fatalf("span events typed %q/%q", ce.Type, re.Type)
	}
	if ce.TraceID != re.TraceID {
		t.Fatalf("child trace %s != root trace %s", ce.TraceID, re.TraceID)
	}
	if ce.ParentSpanID != re.SpanID {
		t.Fatalf("child parent %s != root span %s", ce.ParentSpanID, re.SpanID)
	}
	if re.ParentSpanID != "" {
		t.Fatalf("root span has parent %s", re.ParentSpanID)
	}
	if ce.WALSeq != 42 {
		t.Fatalf("child annotation lost: WALSeq = %d", ce.WALSeq)
	}
	if sc, ok := SpanFromContext(ctx); !ok || sc != child.Context() {
		t.Fatalf("context carries %+v, want child %+v", sc, child.Context())
	}
}

// TestConcurrentSpans exercises span creation, annotation and finish from
// many goroutines at once (run under -race). Every goroutine builds a
// small root->child chain; afterwards each chain must be internally
// consistent and no span ID may repeat across the whole run.
func TestConcurrentSpans(t *testing.T) {
	const goroutines = 32
	const chains = 25
	var col Collector
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < chains; i++ {
				ctx, root := StartSpan(context.Background(), &col, "root")
				ctx, child := StartSpan(ctx, &col, "child")
				child.SetWALSeq(uint64(g*chains + i + 1))
				_, leaf := StartSpan(ctx, &col, "leaf")
				leaf.End()
				child.End()
				root.End()
			}
		}(g)
	}
	wg.Wait()

	events := col.Events()
	if want := goroutines * chains * 3; len(events) != want {
		t.Fatalf("collected %d span events, want %d", len(events), want)
	}
	spanIDs := make(map[string]bool, len(events))
	byTrace := make(map[string][]Event)
	for _, e := range events {
		if e.SpanID == "" || e.TraceID == "" {
			t.Fatalf("event missing IDs: %+v", e)
		}
		if spanIDs[e.SpanID] {
			t.Fatalf("span ID %s issued twice", e.SpanID)
		}
		spanIDs[e.SpanID] = true
		byTrace[e.TraceID] = append(byTrace[e.TraceID], e)
	}
	if len(byTrace) != goroutines*chains {
		t.Fatalf("%d distinct traces, want %d", len(byTrace), goroutines*chains)
	}
	for trace, chain := range byTrace {
		if len(chain) != 3 {
			t.Fatalf("trace %s has %d spans, want 3", trace, len(chain))
		}
		parentOf := make(map[string]string, 3)
		names := make(map[string]string, 3)
		for _, e := range chain {
			parentOf[e.SpanID] = e.ParentSpanID
			names[e.SpanID] = e.Name
		}
		for id, parent := range parentOf {
			switch names[id] {
			case "root":
				if parent != "" {
					t.Fatalf("trace %s: root has parent %s", trace, parent)
				}
			default:
				if names[parent] == "" {
					t.Fatalf("trace %s: %s's parent %s is not in the chain", trace, names[id], parent)
				}
			}
		}
	}
}

// deadWriter fails every write, modeling a full or revoked trace sink.
type deadWriter struct{}

func (deadWriter) Write(p []byte) (int, error) { return 0, errors.New("sink gone") }

// TestTracerDropCounter is the obs_trace_dropped_total contract: once the
// sink fails, every subsequent event increments the drop counter instead
// of disappearing silently. The first oversized event defeats bufio's
// 4 KiB buffering so the failure surfaces immediately.
func TestTracerDropCounter(t *testing.T) {
	tr := NewJSONLTracer(deadWriter{})
	reg := NewRegistry()
	dropped := reg.Counter("obs_trace_dropped_total", "t").With()
	tr.SetDropCounter(dropped)

	// Larger than the 4096-byte buffer: the write reaches the sink and
	// fails, so this event is dropped and the error becomes sticky.
	tr.Emit(Event{Type: EventSpan, Name: strings.Repeat("x", 8192)})
	if got := dropped.Value(); got != 1 {
		t.Fatalf("dropped after failing write = %v, want 1", got)
	}
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: EventAdvised, TransferID: fmt.Sprintf("t-%d", i)})
	}
	if got := dropped.Value(); got != 11 {
		t.Fatalf("dropped after sticky rejects = %v, want 11", got)
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close did not report the sink failure")
	}
}
