package policy

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Decision provenance: the paper's core artifact is a policy decision —
// which rules fired, which facts matched, why a transfer got N streams —
// so every advise/report produces a structured DecisionRecord kept in a
// bounded in-memory ring and optionally streamed to a JSONL sink. The
// ring is observability state, not Policy Memory: it is excluded from
// state dumps and replication checks, and a recovering replica rebuilds
// it by WAL replay (replayed records carry WALSeq 0, marking them as
// reconstructed rather than freshly acknowledged).

// RuleFiring is one rule activation, in the exact order conflict
// resolution fired it (higher salience first).
type RuleFiring struct {
	Rule     string `json:"rule" xml:"rule"`
	Salience int    `json:"salience" xml:"salience"`
}

// DecisionLine is the outcome for one entry of the request batch: a
// transfer or cleanup that was advised, suppressed, or — for report
// operations — completed, failed, cleaned or unmatched.
type DecisionLine struct {
	// ID is the policy-assigned transfer (t-...) or cleanup (c-...) ID.
	ID         string `json:"id,omitempty" xml:"id,omitempty"`
	RequestID  string `json:"requestId,omitempty" xml:"requestId,omitempty"`
	WorkflowID string `json:"workflowId,omitempty" xml:"workflowId,omitempty"`
	// FileURL is the destination URL for transfers, the staged file for
	// cleanups — the name `policyctl explain` matches an LFN against.
	FileURL string `json:"fileUrl,omitempty" xml:"fileUrl,omitempty"`
	// Outcome is advised, suppressed, completed, failed, cleaned or
	// unmatched.
	Outcome string `json:"outcome" xml:"outcome"`
	// Reason explains suppressions (duplicate-in-batch, in-progress,
	// already-staged, file-in-use, ...).
	Reason  string `json:"reason,omitempty" xml:"reason,omitempty"`
	GroupID string `json:"groupId,omitempty" xml:"groupId,omitempty"`
	// Streams is the granted parallel-stream count for advised transfers.
	Streams int `json:"streams,omitempty" xml:"streams,omitempty"`
}

// Line outcomes.
const (
	OutcomeAdvised    = "advised"
	OutcomeSuppressed = "suppressed"
	OutcomeCompleted  = "completed"
	OutcomeFailed     = "failed"
	OutcomeCleaned    = "cleaned"
	OutcomeUnmatched  = "unmatched"
)

// DecisionRecord is the provenance of one acknowledged advise/report
// operation: enough to answer "why did this transfer get what it got"
// without access to the Policy Memory that produced it.
type DecisionRecord struct {
	// Seq is the ring-assigned record number, strictly increasing.
	Seq int64 `json:"seq" xml:"seq"`
	// TimeUnixNano is the wall-clock time the record was committed.
	TimeUnixNano int64 `json:"timeUnixNano,omitempty" xml:"timeUnixNano,omitempty"`
	// Op is one of the Op* mutation names (advise_transfers, ...).
	Op string `json:"op" xml:"op"`
	// TraceID links the decision to its causal trace when the request
	// carried one.
	TraceID string `json:"traceId,omitempty" xml:"traceId,omitempty"`
	// WALSeq is the mutation-log sequence the operation was logged
	// under; 0 when no log was attached (or the record was rebuilt by
	// replay).
	WALSeq uint64 `json:"walSeq,omitempty" xml:"walSeq,omitempty"`
	// Bundle is the version of the policy bundle that was active when the
	// decision was produced — the provenance link from a decision back to
	// the exact policy data that shaped it.
	Bundle string `json:"bundle,omitempty" xml:"bundle,omitempty"`
	// FactsBefore/FactsAfter are the Policy Memory fact counts around
	// rule evaluation — the facts the decision was matched against.
	FactsBefore int `json:"factsBefore" xml:"factsBefore"`
	FactsAfter  int `json:"factsAfter" xml:"factsAfter"`
	// RulesFired lists every rule activation, in firing order (salience
	// descending within the agenda at each step).
	RulesFired []RuleFiring `json:"rulesFired,omitempty" xml:"rulesFired>firing,omitempty"`
	// Lines holds the per-entry outcomes of the batch.
	Lines []DecisionLine `json:"lines,omitempty" xml:"lines>line,omitempty"`
}

// DecisionLog is a bounded ring of decision records with an optional
// JSONL sink. Safe for concurrent use; the service appends records after
// releasing its own lock.
type DecisionLog struct {
	mu  sync.Mutex
	cap int
	// buf grows to cap and is then a ring: head is the oldest record's
	// index, so an eviction overwrites one slot instead of shifting all.
	buf  []DecisionRecord
	head int
	next int64 // next Seq to assign
	// countByOp tracks lifetime records per op, surviving ring eviction.
	countByOp map[string]int64
	sink      *bufio.Writer
	serr      error
	now       func() time.Time
}

// DefaultDecisionRing is the service's decision ring capacity.
const DefaultDecisionRing = 1024

// NewDecisionLog returns a ring keeping the most recent capacity
// records (<= 0 selects DefaultDecisionRing).
func NewDecisionLog(capacity int) *DecisionLog {
	if capacity <= 0 {
		capacity = DefaultDecisionRing
	}
	return &DecisionLog{cap: capacity, countByOp: make(map[string]int64), now: time.Now}
}

// SetSink streams every subsequent record to w as JSON Lines (nil
// detaches). Sink write errors are sticky and returned by Flush.
func (l *DecisionLog) SetSink(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w == nil {
		l.sink = nil
		return
	}
	l.sink = bufio.NewWriter(w)
	l.serr = nil
}

// Flush drains the sink buffer and reports the first sink error.
func (l *DecisionLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.serr != nil {
		return l.serr
	}
	if l.sink == nil {
		return nil
	}
	l.serr = l.sink.Flush()
	return l.serr
}

// Add assigns the record's sequence number and timestamp, appends it to
// the ring (evicting the oldest when full) and streams it to the sink.
func (l *DecisionLog) Add(rec DecisionRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	rec.Seq = l.next
	l.countByOp[rec.Op]++
	if rec.TimeUnixNano == 0 {
		rec.TimeUnixNano = l.now().UnixNano()
	}
	if len(l.buf) == l.cap {
		l.buf[l.head] = rec
		l.head = (l.head + 1) % l.cap
	} else {
		l.buf = append(l.buf, rec)
	}
	if l.sink != nil && l.serr == nil {
		data, err := json.Marshal(&rec)
		if err != nil {
			l.serr = err
			return
		}
		if _, err := l.sink.Write(data); err != nil {
			l.serr = err
			return
		}
		if err := l.sink.WriteByte('\n'); err != nil {
			l.serr = err
		}
	}
}

// Recent returns up to n of the most recent records, oldest first
// (n <= 0 returns all retained records).
func (l *DecisionLog) Recent(n int) []DecisionRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.buf) {
		n = len(l.buf)
	}
	out := make([]DecisionRecord, n)
	for i := range out {
		out[i] = l.buf[(l.head+len(l.buf)-n+i)%len(l.buf)]
	}
	return out
}

// CountByOp returns the lifetime number of records committed for op
// (including records since evicted from the ring).
func (l *DecisionLog) CountByOp(op string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.countByOp[op]
}

// Decisions returns up to n recent decision records, oldest first.
func (s *Service) Decisions(n int) []DecisionRecord {
	return s.decisions.Recent(n)
}

// DecisionCount returns the lifetime number of decision records
// committed for the given logged op name.
func (s *Service) DecisionCount(op string) int64 {
	return s.decisions.CountByOp(op)
}

// SetDecisionSink streams every subsequent decision record to w as JSON
// Lines (nil detaches) — the `-decision-log` file of cmd/policyserver.
func (s *Service) SetDecisionSink(w io.Writer) {
	s.decisions.SetSink(w)
}

// FlushDecisions drains the decision sink.
func (s *Service) FlushDecisions() error {
	return s.decisions.Flush()
}
