package policy

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDecisionLogRingEviction(t *testing.T) {
	l := NewDecisionLog(3)
	for i := 0; i < 5; i++ {
		l.Add(DecisionRecord{Op: OpAdviseTransfers})
	}
	recs := l.Recent(0)
	if len(recs) != 3 {
		t.Fatalf("ring holds %d records, want capacity 3", len(recs))
	}
	// Oldest first, sequence numbers survive eviction unbroken.
	for i, r := range recs {
		if want := int64(i + 3); r.Seq != want {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, want)
		}
		if r.TimeUnixNano == 0 {
			t.Fatalf("record %d has no timestamp", i)
		}
	}
	if got := l.Recent(2); len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("Recent(2) = %+v, want seqs 4,5", got)
	}
	if got := l.Recent(10); len(got) != 3 {
		t.Fatalf("Recent(10) returned %d records, want all 3", len(got))
	}
	if l.next != 5 {
		t.Fatalf("next seq = %d, want 5 (eviction must not shrink lifetime count)", l.next)
	}
	if l.CountByOp(OpAdviseTransfers) != 5 {
		t.Fatalf("CountByOp = %d, want 5", l.CountByOp(OpAdviseTransfers))
	}
	if l.CountByOp(OpReportTransfers) != 0 {
		t.Fatalf("CountByOp for unseen op = %d", l.CountByOp(OpReportTransfers))
	}
}

// TestDecisionLogRecentAcrossWrap checks the head-index ring at every fill
// level and across several wrap-arounds: Recent(n) is always the last n
// records oldest first, and the lifetime counters never lose an evicted
// record.
func TestDecisionLogRecentAcrossWrap(t *testing.T) {
	const capacity = 4
	l := NewDecisionLog(capacity)
	ops := []string{OpAdviseTransfers, OpReportTransfers}
	for added := 1; added <= 3*capacity+1; added++ {
		l.Add(DecisionRecord{Op: ops[added%2]})
		retained := min(added, capacity)
		for n := 0; n <= capacity+1; n++ {
			got := l.Recent(n)
			want := n
			if n <= 0 || n > retained {
				want = retained
			}
			if len(got) != want {
				t.Fatalf("after %d adds Recent(%d) returned %d records, want %d", added, n, len(got), want)
			}
			for i, r := range got {
				if seq := int64(added - want + 1 + i); r.Seq != seq {
					t.Fatalf("after %d adds Recent(%d)[%d].Seq = %d, want %d", added, n, i, r.Seq, seq)
				}
				if r.Op != ops[r.Seq%2] {
					t.Fatalf("after %d adds record seq %d carries op %s", added, r.Seq, r.Op)
				}
			}
		}
		if l.next != int64(added) {
			t.Fatalf("next seq = %d after %d adds", l.next, added)
		}
		if got, want := l.CountByOp(OpAdviseTransfers), int64(added/2); got != want {
			t.Fatalf("CountByOp(advise) = %d after %d adds, want %d", got, added, want)
		}
		if got, want := l.CountByOp(OpReportTransfers), int64((added+1)/2); got != want {
			t.Fatalf("CountByOp(report) = %d after %d adds, want %d", got, added, want)
		}
	}
}

func TestDecisionLogDefaultCapacity(t *testing.T) {
	l := NewDecisionLog(0)
	for i := 0; i < DefaultDecisionRing+10; i++ {
		l.Add(DecisionRecord{Op: OpReportCleanups})
	}
	if got := len(l.Recent(0)); got != DefaultDecisionRing {
		t.Fatalf("default ring holds %d, want %d", got, DefaultDecisionRing)
	}
}

func TestDecisionLogSinkStreams(t *testing.T) {
	l := NewDecisionLog(2) // smaller than the record count: sink must not evict
	var sb strings.Builder
	l.SetSink(&sb)
	l.now = func() time.Time { return time.Unix(0, 12345) }
	for i := 0; i < 4; i++ {
		l.Add(DecisionRecord{
			Op:         OpAdviseTransfers,
			RulesFired: []RuleFiring{{Rule: "assign-streams", Salience: 10}},
			Lines:      []DecisionLine{{ID: "t-00000001", Outcome: OutcomeAdvised, Streams: 4}},
		})
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("sink received %d lines, want 4 (ring eviction must not drop sink records)", len(lines))
	}
	for i, line := range lines {
		var rec DecisionRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d does not parse: %v", i+1, err)
		}
		if rec.Seq != int64(i+1) || rec.Op != OpAdviseTransfers || rec.TimeUnixNano != 12345 {
			t.Fatalf("line %d = %+v", i+1, rec)
		}
		if len(rec.RulesFired) != 1 || rec.RulesFired[0].Rule != "assign-streams" {
			t.Fatalf("line %d lost rule firings: %+v", i+1, rec)
		}
	}

	// Detaching stops streaming without disturbing the ring.
	l.SetSink(nil)
	l.Add(DecisionRecord{Op: OpAdviseTransfers})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 4 {
		t.Fatalf("detached sink received more records: %d lines", got)
	}
}

type failingSink struct{}

func (failingSink) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestDecisionLogSinkErrorSticky(t *testing.T) {
	l := NewDecisionLog(4)
	l.SetSink(failingSink{})
	// Push enough bytes through bufio that the failing write surfaces.
	big := strings.Repeat("r", 8192)
	l.Add(DecisionRecord{Op: OpAdviseTransfers, Lines: []DecisionLine{{ID: big}}})
	if err := l.Flush(); err == nil {
		t.Fatal("sink failure not reported by Flush")
	}
	// The ring keeps working after the sink dies.
	l.Add(DecisionRecord{Op: OpAdviseTransfers})
	if got := l.next; got != 2 {
		t.Fatalf("next seq after sink failure = %d, want 2", got)
	}
	// A fresh sink clears the sticky error.
	var sb strings.Builder
	l.SetSink(&sb)
	l.Add(DecisionRecord{Op: OpAdviseTransfers})
	if err := l.Flush(); err != nil {
		t.Fatalf("replacement sink still failing: %v", err)
	}
	if !strings.Contains(sb.String(), "advise_transfers") {
		t.Fatalf("replacement sink got %q", sb.String())
	}
}
