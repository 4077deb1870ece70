package policy

import (
	"fmt"
	"testing"
)

// loadResidentFacts seeds Policy Memory with n in-progress transfers (plus
// their resource, threshold, ledger, and group facts) without going
// through the advise path, so the warm-up cost is O(n) inserts for the
// naive reference engine too. Residents spread over 64 host pairs and one
// settle pass runs afterwards (in-progress facts activate no rules, so it
// only drains the agenda bookkeeping).
func loadResidentFacts(b *testing.B, svc *Service, n int) {
	b.Helper()
	const pairs = 64
	type pairState struct {
		pair      HostPair
		allocated int
	}
	ps := make([]*pairState, pairs)
	for p := 0; p < pairs; p++ {
		ps[p] = &pairState{pair: HostPair{
			Src: fmt.Sprintf("res-src-%d.example.org", p),
			Dst: fmt.Sprintf("res-dst-%d.example.org", p),
		}}
	}
	for i := 0; i < n; i++ {
		st := ps[i%pairs]
		dest := fmt.Sprintf("file://%s/scratch/res-%d", st.pair.Dst, i)
		svc.session.Insert(&Transfer{
			ID:               fmt.Sprintf("t-res-%08d", i),
			RequestID:        fmt.Sprintf("res-%d", i),
			WorkflowID:       "resident",
			SourceURL:        fmt.Sprintf("gsiftp://%s/data/res-%d", st.pair.Src, i),
			DestURL:          dest,
			Pair:             st.pair,
			RequestedStreams: 4,
			AllocatedStreams: 4,
			GroupID:          fmt.Sprintf("g-res-%04d", i%pairs),
			State:            TransferInProgress,
		})
		svc.session.Insert(&Resource{
			DestURL: dest,
			Users:   map[string]int{"resident": 1},
		})
		st.allocated += 4
	}
	for p, st := range ps {
		svc.session.Insert(&Threshold{Pair: st.pair, Max: 1 << 20})
		svc.session.Insert(&StreamLedger{Pair: st.pair, Allocated: st.allocated})
		svc.session.Insert(&Group{Pair: st.pair, ID: fmt.Sprintf("g-res-%04d", p)})
	}
	svc.nextTransfer = 10 * n // measured IDs never collide with residents
	svc.nextGroup = pairs
	if _, err := svc.session.FireAll(0); err != nil {
		b.Fatal(err)
	}
}

// benchAdviseHotPath measures one advise/report round trip against n
// resident facts. This is the series behind rules_advise_facts_10k and
// rules_advise_facts_100k in BENCH_policyflow.json.
func benchAdviseHotPath(b *testing.B, n int, reference bool) {
	cfg := DefaultConfig()
	cfg.referenceMatcher = reference
	svc, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	loadResidentFacts(b, svc, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := svc.AdviseTransfers([]TransferSpec{{
			RequestID:  fmt.Sprintf("bench-%d", i),
			WorkflowID: "bench",
			SourceURL:  fmt.Sprintf("gsiftp://bench-src.example.org/data/f%d", i),
			DestURL:    fmt.Sprintf("file://bench-dst.example.org/scratch/f%d", i),
		}})
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(adv.Transfers))
		for j, tr := range adv.Transfers {
			ids[j] = tr.ID
		}
		if _, err := svc.ReportTransfers(CompletionReport{TransferIDs: ids}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdviseHotPath is the incremental engine at scale.
func BenchmarkAdviseHotPath(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			benchAdviseHotPath(b, n, false)
		})
	}
}

// BenchmarkAdviseHotPathReference is the naive full-rejoin engine on the
// same workload — the "before" curve for EXPERIMENTS.md. Not part of the
// benchjson trajectory (it would dominate CI time at 100k facts).
func BenchmarkAdviseHotPathReference(b *testing.B) {
	for _, n := range []int{10000} {
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			benchAdviseHotPath(b, n, true)
		})
	}
}

// adviseReportBatch advises n fresh files in one transfer list and reports
// them all complete — one staging job's round trip, as the transfer tool
// makes it. round keeps URLs and request IDs unique across calls.
func adviseReportBatch(tb testing.TB, svc *Service, round, n int) {
	tb.Helper()
	specs := make([]TransferSpec, n)
	for j := range specs {
		specs[j] = TransferSpec{
			RequestID:  fmt.Sprintf("batch-%d-%d", round, j),
			WorkflowID: "bench",
			SourceURL:  fmt.Sprintf("gsiftp://bench-src.example.org/data/r%d-f%d", round, j),
			DestURL:    fmt.Sprintf("file://bench-dst.example.org/scratch/r%d-f%d", round, j),
		}
	}
	adv, err := svc.AdviseTransfers(specs)
	if err != nil {
		tb.Fatal(err)
	}
	if len(adv.Transfers) != n {
		tb.Fatalf("advised %d of %d fresh files", len(adv.Transfers), n)
	}
	ids := make([]string, n)
	for j, tr := range adv.Transfers {
		ids[j] = tr.ID
	}
	if _, err := svc.ReportTransfers(CompletionReport{TransferIDs: ids}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkAdviseBatch measures advise + report against the size of the
// transfer list: the paper's transfer tool submits a whole list per staging
// job, so the policy call must cost O(list), not O(list²). ns/op is per
// call; divide by n for the per-file cost.
func BenchmarkAdviseBatch(b *testing.B) {
	for _, n := range []int{1, 4, 20, 100, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			svc, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			adviseReportBatch(b, svc, -1, n) // creates the pair's group, threshold and ledger
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adviseReportBatch(b, svc, i, n)
			}
		})
	}
}
