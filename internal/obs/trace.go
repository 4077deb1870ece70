package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event types emitted over a transfer's lifecycle:
// submitted -> advised | suppressed -> started -> completed | failed,
// and for cleanups cleanup-advised | cleanup-suppressed -> cleaned.
const (
	EventSubmitted         = "submitted"
	EventAdvised           = "advised"
	EventSuppressed        = "suppressed"
	EventStarted           = "started"
	EventCompleted         = "completed"
	EventFailed            = "failed"
	EventCleanupAdvised    = "cleanup-advised"
	EventCleanupSuppressed = "cleanup-suppressed"
	EventCleaned           = "cleaned"
	// Lease lifecycle: a workflow's lease expired, and each in-progress
	// transfer reclaimed from it.
	EventLeaseExpired = "lease-expired"
	EventReclaimed    = "reclaimed"
	// EventSpan records one finished causal span (see span.go); the
	// TraceID/SpanID/ParentSpanID fields link spans into a trace.
	EventSpan = "span"
)

// Event is one structured trace record. The JSONL stream of events is the
// provenance record of a run: every policy decision and every data
// movement appears with enough context (workflow, host pair, group,
// streams, sizes, durations) to reconstruct figures without access to the
// in-memory state that produced them.
type Event struct {
	// Seq is the tracer-assigned sequence number, strictly increasing in
	// emission order.
	Seq int64 `json:"seq"`
	// TimeUnixNano is the wall-clock emission time.
	TimeUnixNano int64 `json:"timeUnixNano,omitempty"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// TransferID is the policy-assigned transfer ID (t-...), or the
	// cleanup ID (c-...) for cleanup events.
	TransferID string `json:"transferId,omitempty"`
	// RequestID is the caller-supplied request identifier.
	RequestID string `json:"requestId,omitempty"`
	// WorkflowID identifies the requesting workflow.
	WorkflowID string `json:"workflowId,omitempty"`
	// GroupID is the host-pair session group assigned by the service.
	GroupID string `json:"groupId,omitempty"`
	// SourceHost and DestHost are the transfer's host pair.
	SourceHost string `json:"sourceHost,omitempty"`
	DestHost   string `json:"destHost,omitempty"`
	// FileURL names the staged file for cleanup events.
	FileURL string `json:"fileUrl,omitempty"`
	// SizeBytes is the transfer payload size when known.
	SizeBytes int64 `json:"sizeBytes,omitempty"`
	// Streams is the allocated parallel-stream count.
	Streams int `json:"streams,omitempty"`
	// Priority is the transfer's scheduling priority.
	Priority int `json:"priority,omitempty"`
	// Reason explains a suppressed / cleanup-suppressed event.
	Reason string `json:"reason,omitempty"`
	// Seconds is the measured transfer duration (completed events that
	// carried timings).
	Seconds float64 `json:"seconds,omitempty"`
	// SimSeconds is the simulation clock at emission, for events produced
	// inside the simulated testbed.
	SimSeconds float64 `json:"simSeconds,omitempty"`
	// Name is the span's operation name (span events only), e.g.
	// "policy.advise_transfers" or "wal.fsync".
	Name string `json:"name,omitempty"`
	// TraceID, SpanID and ParentSpanID link span events (and any
	// lifecycle event emitted under a traced request) into a causal
	// trace; ParentSpanID is empty on root spans.
	TraceID      string `json:"traceId,omitempty"`
	SpanID       string `json:"spanId,omitempty"`
	ParentSpanID string `json:"parentSpanId,omitempty"`
	// DurationNanos is the span's measured wall-clock duration.
	DurationNanos int64 `json:"durationNanos,omitempty"`
	// WALSeq ties a span to the mutation-log record it covers (append
	// spans carry the appended sequence, fsync spans the last durable
	// one).
	WALSeq uint64 `json:"walSeq,omitempty"`
	// Endpoint and Status annotate HTTP server spans with the route
	// pattern and response code.
	Endpoint string `json:"endpoint,omitempty"`
	Status   int    `json:"status,omitempty"`
}

// Tracer receives lifecycle events. Implementations must be safe for
// concurrent use. A nil Tracer is never passed; callers guard with
// nil checks instead.
type Tracer interface {
	Emit(Event)
}

// JSONLTracer streams events to an io.Writer as JSON Lines, one event per
// line, in emission order. It buffers internally; call Close (or Flush) to
// drain. Safe for concurrent use.
type JSONLTracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	seq int64
	err error
	// now is the wall clock; replaceable in tests for determinism.
	now func() time.Time
	// dropped counts events discarded because of a write failure (the
	// failing write and every event rejected by the sticky error after
	// it). Nil until SetDropCounter wires a metric.
	dropped *Counter
}

// SetDropCounter registers the counter incremented once per event the
// tracer drops on write failure, surfacing losses that would otherwise
// be invisible until Close.
func (t *JSONLTracer) SetDropCounter(c *Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped = c
}

// drop records a discarded event. Called with t.mu held.
func (t *JSONLTracer) drop() {
	if t.dropped != nil {
		t.dropped.Inc()
	}
}

// NewJSONLTracer wraps w. If w is also an io.Closer, Close closes it after
// flushing.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	t := &JSONLTracer{bw: bufio.NewWriter(w), now: time.Now}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit assigns the event a sequence number and timestamp and writes it.
// Write errors are sticky and reported by Close.
func (t *JSONLTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		t.drop()
		return
	}
	t.seq++
	e.Seq = t.seq
	if e.TimeUnixNano == 0 {
		e.TimeUnixNano = t.now().UnixNano()
	}
	data, err := json.Marshal(&e)
	if err != nil {
		t.err = err
		t.drop()
		return
	}
	if _, err := t.bw.Write(data); err != nil {
		t.err = err
		t.drop()
		return
	}
	if err := t.bw.WriteByte('\n'); err != nil {
		t.err = err
		t.drop()
	}
}

// Flush drains the internal buffer.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// Close flushes buffered events, closes the underlying writer when it is
// closable, and returns the first error encountered over the tracer's
// lifetime.
func (t *JSONLTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ferr := t.bw.Flush(); t.err == nil {
		t.err = ferr
	}
	if t.c != nil {
		if cerr := t.c.Close(); t.err == nil {
			t.err = cerr
		}
		t.c = nil
	}
	return t.err
}

// ReadEvents decodes a JSONL event stream, preserving order. It is the
// inverse of JSONLTracer and the entry point for regenerating figures
// from a recorded run.
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("obs: event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}
