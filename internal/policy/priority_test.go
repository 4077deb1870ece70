package policy

import (
	"fmt"
	"testing"

	"policyflow/internal/bundle"
)

// newPrioritized builds a greedy service and activates a bundle with its
// defaults and the weighting w.
func newPrioritized(t *testing.T, threshold, defStreams int, w *bundle.Priority) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DefaultThreshold = threshold
	cfg.DefaultStreams = defStreams
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	activateEdited(t, s, "weighted", func(b *bundle.Bundle) { b.Priority = w })
	return s
}

func prioSpec(i, prio int) TransferSpec {
	sp := spec(i, "wf1")
	sp.Priority = prio
	return sp
}

func TestPriorityBoostAboveMedian(t *testing.T) {
	s := newPrioritized(t, 100, 4, defaultPriorityWeighting())
	// Priorities 1..5: median 3. Priority 4 and 5 boosted to 6 streams
	// (4 x 1.5); priority 1 and 2 reduced to 2; the median stays at 4.
	var specs []TransferSpec
	for i := 1; i <= 5; i++ {
		specs = append(specs, prioSpec(i, i))
	}
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, tr := range adv.Transfers {
		got[tr.RequestID] = tr.Streams
	}
	want := map[string]int{
		"req-1": 2, "req-2": 2, // below median: halved
		"req-3": 4,             // median: unchanged
		"req-4": 6, "req-5": 6, // above median: boosted
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s streams = %d, want %d (all: %v)", k, got[k], w, got)
		}
	}
	// Ordering: highest priority first.
	if adv.Transfers[0].RequestID != "req-5" {
		t.Errorf("first transfer = %s, want req-5", adv.Transfers[0].RequestID)
	}
}

func TestPriorityWeightingRespectsThreshold(t *testing.T) {
	// Threshold 10: boosts cannot push total allocation past the greedy
	// cap.
	s := newPrioritized(t, 10, 4, defaultPriorityWeighting())
	var specs []TransferSpec
	for i := 1; i <= 4; i++ {
		specs = append(specs, prioSpec(i, i))
	}
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tr := range adv.Transfers {
		total += tr.Streams
	}
	// Greedy invariant: only the transfer that crosses the threshold may
	// be trimmed; afterwards everyone gets 1. Total <= threshold +
	// (n-1) x min.
	if total > 10+3 {
		t.Fatalf("total = %d exceeds greedy bound", total)
	}
	snap := s.Snapshot()
	if snap.Pairs[0].Allocated != total {
		t.Fatalf("ledger %d != advised total %d", snap.Pairs[0].Allocated, total)
	}
}

func TestPriorityReduceNeverBelowMin(t *testing.T) {
	s := newPrioritized(t, 100, 1, defaultPriorityWeighting())
	adv, err := s.AdviseTransfers([]TransferSpec{prioSpec(1, 1), prioSpec(2, 5), prioSpec(3, 9)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range adv.Transfers {
		if tr.Streams < 1 {
			t.Fatalf("streams = %d < 1 for %s", tr.Streams, tr.RequestID)
		}
	}
}

func TestZeroWeightingDisabled(t *testing.T) {
	// Boost 1 and reduce 0 are the schema's "no weighting" factors.
	s := newPrioritized(t, 100, 4, &bundle.Priority{BoostFactor: 1})
	adv, err := s.AdviseTransfers([]TransferSpec{prioSpec(1, 1), prioSpec(2, 100)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range adv.Transfers {
		if tr.Streams != 4 {
			t.Fatalf("weighting applied despite zero config: %+v", tr)
		}
	}
}

// TestBundleWithoutPriorityDisablesWeighting: weighting comes only from
// the active bundle, so activating one without a priority section turns
// it off (there is no compiled-in weighting to fall back to), and v0
// never weights.
func TestBundleWithoutPriorityDisablesWeighting(t *testing.T) {
	s := newPrioritized(t, 100, 4, defaultPriorityWeighting())
	// Priorities 1, 5, 9 (median 5), granted highest first.
	streams := func(first int) []int {
		t.Helper()
		adv, err := s.AdviseTransfers([]TransferSpec{prioSpec(first, 1), prioSpec(first+1, 5), prioSpec(first+2, 9)})
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for _, tr := range adv.Transfers {
			out = append(out, tr.Streams)
		}
		return out
	}
	if got := fmt.Sprint(streams(1)); got != "[6 4 2]" {
		t.Fatalf("weighted grants = %s, want [6 4 2]", got)
	}
	activateEdited(t, s, "unweighted", func(b *bundle.Bundle) { b.Priority = nil })
	if got := fmt.Sprint(streams(4)); got != "[4 4 4]" {
		t.Fatalf("grants after a bundle without priority = %s, want [4 4 4]", got)
	}
	if _, err := s.RollbackBundle(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(streams(7)); got != "[6 4 2]" {
		t.Fatalf("grants after rolling back to the weighted bundle = %s, want [6 4 2]", got)
	}
	v0 := newGreedy(t, 100, 4)
	adv, err := v0.AdviseTransfers([]TransferSpec{prioSpec(1, 1), prioSpec(2, 5), prioSpec(3, 9)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range adv.Transfers {
		if tr.Streams != 4 {
			t.Fatalf("v0 weighted a grant: %+v", tr)
		}
	}
}

func TestUnprioritizedTransfersUnaffected(t *testing.T) {
	s := newPrioritized(t, 100, 4, defaultPriorityWeighting())
	var specs []TransferSpec
	for i := 1; i <= 3; i++ {
		specs = append(specs, spec(i, "wf1")) // Priority 0
	}
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range adv.Transfers {
		if tr.Streams != 4 {
			t.Fatalf("priority rules touched unprioritized transfer: %+v", tr)
		}
	}
}

func TestPriorityWeightingAcrossBatches(t *testing.T) {
	// The median is computed over the current batch in memory; a second
	// batch with uniform priorities is unaffected by the first (which
	// has moved to in-progress).
	s := newPrioritized(t, 100, 4, defaultPriorityWeighting())
	if _, err := s.AdviseTransfers([]TransferSpec{prioSpec(1, 100)}); err != nil {
		t.Fatal(err)
	}
	adv, err := s.AdviseTransfers([]TransferSpec{prioSpec(10, 5), prioSpec(11, 5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range adv.Transfers {
		if tr.Streams != 4 {
			t.Fatalf("uniform-priority batch modified: %v streams", tr.Streams)
		}
	}
}

func TestMedianSubmittedPriorityOddEven(t *testing.T) {
	// Behavioural check of the median through the service: with an even
	// batch {1,2,3,10}, the median index picks 3 (upper middle); only 10
	// is boosted.
	s := newPrioritized(t, 1000, 4, defaultPriorityWeighting())
	var specs []TransferSpec
	for i, p := range []int{1, 2, 3, 10} {
		specs = append(specs, prioSpec(i, p))
	}
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	boosted := 0
	for _, tr := range adv.Transfers {
		if tr.Streams > 4 {
			boosted++
		}
	}
	if boosted != 1 {
		t.Fatalf("boosted = %d, want 1 (only the max)", boosted)
	}
}

func BenchmarkAdviseWithPriorityRules(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	activateEdited(b, s, "weighted", func(bb *bundle.Bundle) { bb.Priority = defaultPriorityWeighting() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var specs []TransferSpec
		for j := 0; j < 10; j++ {
			sp := TransferSpec{
				RequestID:  fmt.Sprintf("r-%d-%d", i, j),
				WorkflowID: "bench",
				SourceURL:  fmt.Sprintf("gsiftp://s.example.org/f-%d-%d", i, j),
				DestURL:    fmt.Sprintf("file://d.example.org/f-%d-%d", i, j),
				Priority:   j,
			}
			specs = append(specs, sp)
		}
		adv, err := s.AdviseTransfers(specs)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(adv.Transfers))
		for j, tr := range adv.Transfers {
			ids[j] = tr.ID
		}
		if _, err := s.ReportTransfers(CompletionReport{TransferIDs: ids}); err != nil {
			b.Fatal(err)
		}
	}
}

// defaultPriorityWeighting boosts important transfers by 1.5x and halves
// unimportant ones.
func defaultPriorityWeighting() *bundle.Priority {
	return &bundle.Priority{BoostFactor: 1.5, ReduceFactor: 0.5}
}
