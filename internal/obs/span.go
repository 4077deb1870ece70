package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strings"
	"time"
)

// Causal span tracing. A SpanContext (trace ID + span ID) rides a
// context.Context through the process and a traceparent-style header
// across the policyhttp client/server boundary, so one advise call is
// reconstructable end-to-end: client attempt -> server handler -> rule
// firing -> WAL append -> group-commit fsync. Spans are emitted as
// ordinary Events (Type == EventSpan) into the same JSONL stream as the
// transfer lifecycle, keyed by TraceID/SpanID/ParentSpanID.

// TraceparentHeader is the HTTP header carrying the span context, in the
// W3C trace-context style: "00-<32 hex trace id>-<16 hex span id>-01".
const TraceparentHeader = "Traceparent"

// SpanContext identifies a position in a trace: the trace it belongs to
// and the span that is current.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both IDs are present.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// ParseTraceparent parses a traceparent-style header value. It accepts
// any version field and ignores the flags; malformed values return
// ok == false.
func ParseTraceparent(v string) (SpanContext, bool) {
	v = strings.TrimSpace(v)
	// "vv-<32 hex>-<16 hex>-ff": the dashes sit at fixed offsets, and the
	// hex checks reject a dash anywhere else.
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	trace, span := v[3:35], v[36:52]
	if !isHex(v[:2]) || !isHex(trace) || !isHex(span) || !isHex(v[53:]) ||
		trace == zeroTraceID || span == zeroSpanID {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: strings.ToLower(trace), SpanID: strings.ToLower(span)}, true
}

const (
	zeroTraceID = "00000000000000000000000000000000"
	zeroSpanID  = "0000000000000000"
)

func isHex(s string) bool {
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		default:
			return false
		}
	}
	return true
}

// IDs come from the runtime's per-thread random source: spans need IDs
// that do not collide, not IDs nobody can guess, and minting one must
// cost neither a system call nor a lock. Each is formatted with a single
// allocation.

// putID writes a fresh non-zero 64-bit ID as 16 hex digits into dst.
func putID(dst []byte) {
	n := rand.Uint64()
	if n == 0 {
		n = 1 // the zero ID is invalid on the wire
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n)
	hex.Encode(dst, b[:])
}

// NewID returns a fresh random 64-bit ID in lowercase hex: a span ID, or
// any other ID that must not collide across processes.
func NewID() string {
	var b [16]byte
	putID(b[:])
	return string(b[:])
}

// NewSpanContext mints a root span context: a fresh trace with a fresh
// span. The two IDs share one allocation.
func NewSpanContext() SpanContext {
	var b [48]byte
	putID(b[0:16])
	putID(b[16:32])
	putID(b[32:48])
	ids := string(b[:])
	return SpanContext{TraceID: ids[:32], SpanID: ids[32:]}
}

// NewTraceparent returns the header value naming a fresh span: a child of
// the span in ctx, or the root of a fresh trace when ctx carries none. It
// is built in one allocation.
func NewTraceparent(ctx context.Context) string {
	var b [55]byte
	copy(b[:], "00-")
	if parent, ok := SpanFromContext(ctx); ok && len(parent.TraceID) == 32 {
		copy(b[3:35], parent.TraceID)
	} else {
		putID(b[3:19])
		putID(b[19:35])
	}
	b[35] = '-'
	putID(b[36:52])
	copy(b[52:], "-01")
	return string(b[:])
}

type spanCtxKey struct{}

// spanCtx is a context carrying a span context: one allocation where
// context.WithValue would take two (the node and the boxed value).
type spanCtx struct {
	context.Context
	sc SpanContext
}

func (c *spanCtx) Value(key any) any {
	if key == (spanCtxKey{}) {
		return &c.sc
	}
	return c.Context.Value(key)
}

// ContextWithSpan returns a context carrying sc.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return &spanCtx{Context: ctx, sc: sc}
}

// SpanFromContext returns the span context carried by ctx, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	if sc, ok := ctx.Value(spanCtxKey{}).(*SpanContext); ok && sc.Valid() {
		return *sc, true
	}
	return SpanContext{}, false
}

// Span is one timed operation within a trace. It is created by StartSpan
// and emitted on End. A nil *Span is valid and inert, so callers need no
// nil checks when tracing is disabled.
type Span struct {
	tracer Tracer
	name   string
	sc     SpanContext
	parent string
	start  time.Time
	// Annot holds optional annotations merged into the emitted event
	// (identifying and timing fields are overwritten at End). Set fields
	// before calling End; Span is not safe for concurrent mutation.
	Annot Event
}

// StartSpan begins a span named name as a child of the span context in
// ctx (or as the root of a fresh trace if ctx carries none) and returns a
// derived context carrying the new span context. The span is emitted to
// tr on End.
//
// Without a tracer StartSpan returns ctx unchanged and a nil *Span (End
// is still safe to call): an untraced layer mints no ID and allocates
// nothing. The caller's trace still flows through — it is the one in ctx
// — so decision records and lifecycle events keep its trace ID, and a
// traced layer further in parents its span to the caller's real, emitted
// span rather than to one that was never emitted.
func StartSpan(ctx context.Context, tr Tracer, name string) (context.Context, *Span) {
	if tr == nil {
		return ctx, nil
	}
	var sc SpanContext
	parent, ok := SpanFromContext(ctx)
	if ok {
		sc = SpanContext{TraceID: parent.TraceID, SpanID: NewID()}
	} else {
		sc = NewSpanContext()
	}
	return ContextWithSpan(ctx, sc), &Span{tracer: tr, name: name, sc: sc, parent: parent.SpanID, start: time.Now()}
}

// SetWALSeq annotates the span with the WAL sequence it covers. Safe on
// nil spans (tracing disabled).
func (s *Span) SetWALSeq(seq uint64) {
	if s != nil {
		s.Annot.WALSeq = seq
	}
}

// Context returns the span's own span context. Valid on nil spans.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// End emits the span event with its measured duration. Safe on nil
// spans; a second End is ignored.
func (s *Span) End() {
	if s == nil || s.tracer == nil {
		return
	}
	e := s.Annot
	e.Type = EventSpan
	e.Name = s.name
	e.TraceID = s.sc.TraceID
	e.SpanID = s.sc.SpanID
	e.ParentSpanID = s.parent
	e.DurationNanos = time.Since(s.start).Nanoseconds()
	tr := s.tracer
	s.tracer = nil
	tr.Emit(e)
}
