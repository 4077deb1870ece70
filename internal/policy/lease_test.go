package policy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"policyflow/internal/obs"
)

func leaseTestService(t *testing.T, ttl float64) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LeaseTTL = ttl
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func leaseSpec(wf, req, file string) TransferSpec {
	return TransferSpec{
		RequestID:  req,
		WorkflowID: wf,
		SourceURL:  "gsiftp://src.example.org/data/" + file,
		DestURL:    "gsiftp://dst.example.org/scratch/" + file,
	}
}

func TestRenewLeaseValidation(t *testing.T) {
	svc := leaseTestService(t, 10)
	if _, err := Call[*LeaseStatus](context.Background(), svc, OpRenewLease, LeaseOp{WorkflowID: ""}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("empty workflow ID: err = %v, want ErrInvalidRequest", err)
	}
	disabled := leaseTestService(t, 0)
	if _, err := Call[*LeaseStatus](context.Background(), disabled, OpRenewLease, LeaseOp{WorkflowID: "wf1"}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("leases disabled: err = %v, want ErrInvalidRequest", err)
	}
}

func TestAdvanceClockValidation(t *testing.T) {
	svc := leaseTestService(t, 10)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := Call[*ClockAdvance](context.Background(), svc, OpAdvanceClock, ClockOp{Now: bad}); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("AdvanceClock(%v): err = %v, want ErrInvalidRequest", bad, err)
		}
	}
}

// TestStaleClockTickIsUnloggedNoOp pins the monotonic clamp: a tick that
// does not move the clock forward changes nothing and writes nothing to the
// mutation log, so wall-clock tickers on different replicas cannot make
// their WALs diverge.
func TestStaleClockTickIsUnloggedNoOp(t *testing.T) {
	svc := leaseTestService(t, 10)
	fl := &fakeLog{}
	svc.SetMutationLog(fl)
	if _, err := Call[*ClockAdvance](context.Background(), svc, OpAdvanceClock, ClockOp{Now: 5}); err != nil {
		t.Fatal(err)
	}
	logged := len(fl.ops)
	for _, stale := range []float64{5, 3, 0} {
		adv, err := Call[*ClockAdvance](context.Background(), svc, OpAdvanceClock, ClockOp{Now: stale})
		if err != nil {
			t.Fatalf("AdvanceClock(%v): %v", stale, err)
		}
		if adv.Now != 5 || len(adv.Expired) != 0 {
			t.Fatalf("AdvanceClock(%v) = %+v, want clamped no-op at 5", stale, adv)
		}
	}
	if len(fl.ops) != logged {
		t.Fatalf("stale ticks were logged: ops = %v", fl.ops)
	}
}

// TestAdviseRegistersLeaseAndExpiryReclaims covers the lease lifecycle at
// the service level: advises implicitly register leases, Leases() reports
// the holdings at stake, renewal extends only the renewed owner, and expiry
// reclaims the dead workflow's transfers, streams and reference counts
// while leaving the survivor untouched.
func TestAdviseRegistersLeaseAndExpiryReclaims(t *testing.T) {
	svc := leaseTestService(t, 10)
	if _, err := svc.AdviseTransfers([]TransferSpec{
		leaseSpec("wf-a", "ra1", "f1"),
		leaseSpec("wf-a", "ra2", "f2"),
	}); err != nil {
		t.Fatal(err)
	}
	// wf-b requests the file wf-a is staging: suppressed, refcounted, and
	// leased even though it was granted nothing.
	adv, err := svc.AdviseTransfers([]TransferSpec{leaseSpec("wf-b", "rb1", "f1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 0 || len(adv.Removed) != 1 {
		t.Fatalf("wf-b advice = %+v, want full suppression", adv)
	}

	list := svc.Leases()
	if list.TTLSeconds != 10 || len(list.Leases) != 2 {
		t.Fatalf("leases = %+v, want 2 at ttl 10", list)
	}
	a, b := list.Leases[0], list.Leases[1]
	if a.WorkflowID != "wf-a" || a.Deadline != 10 || a.InProgress != 2 || a.HeldStreams != 2*svc.cfg.DefaultStreams {
		t.Fatalf("wf-a lease = %+v", a)
	}
	if b.WorkflowID != "wf-b" || b.InProgress != 0 || b.HeldStreams != 0 {
		t.Fatalf("wf-b lease = %+v", b)
	}

	// wf-b renews at t=6; wf-a goes silent.
	if _, err := Call[*ClockAdvance](context.Background(), svc, OpAdvanceClock, ClockOp{Now: 6}); err != nil {
		t.Fatal(err)
	}
	st, err := Call[*LeaseStatus](context.Background(), svc, OpRenewLease, LeaseOp{WorkflowID: "wf-b"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadline != 16 {
		t.Fatalf("renewed deadline = %v, want 16", st.Deadline)
	}

	adv2, err := Call[*ClockAdvance](context.Background(), svc, OpAdvanceClock, ClockOp{Now: 12})
	if err != nil {
		t.Fatal(err)
	}
	wantExpired := []string{"wf-a"}
	if len(adv2.Expired) != 1 || adv2.Expired[0] != wantExpired[0] ||
		adv2.ReclaimedTransfers != 2 || adv2.ReclaimedStreams != 2*svc.cfg.DefaultStreams {
		t.Fatalf("expiry = %+v, want wf-a's 2 transfers reclaimed", adv2)
	}

	d := svc.ExportState()
	if len(d.Transfers) != 0 {
		t.Fatalf("transfers after expiry = %+v", d.Transfers)
	}
	for _, l := range d.Ledgers {
		if l.Allocated != 0 {
			t.Fatalf("ledger %s->%s still holds %d streams", l.Src, l.Dst, l.Allocated)
		}
	}
	for _, r := range d.Resources {
		for _, u := range r.Users {
			if u.WorkflowID == "wf-a" {
				t.Fatalf("wf-a still referenced on %s", r.DestURL)
			}
		}
	}
	if len(d.Leases) != 1 || d.Leases[0].Owner != "wf-b" {
		t.Fatalf("leases after expiry = %+v", d.Leases)
	}
}

// TestReportAckCountsUnmatched covers the report acknowledgement contract:
// IDs that match nothing in Policy Memory are counted back to the caller
// and onto the policy_report_unmatched_total counter instead of being
// silently dropped.
func TestReportAckCountsUnmatched(t *testing.T) {
	svc := leaseTestService(t, 0)
	reg := obs.NewRegistry()
	svc.Instrument(reg, nil)
	adv, err := svc.AdviseTransfers([]TransferSpec{leaseSpec("wf1", "r1", "f1")})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := svc.ReportTransfers(CompletionReport{
		TransferIDs: []string{adv.Transfers[0].ID, "t-bogus-1"},
		FailedIDs:   []string{"t-bogus-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Matched != 1 || ack.Unmatched != 2 {
		t.Fatalf("ack = %+v, want matched 1 unmatched 2", ack)
	}
	// A duplicate of the same report now matches nothing at all.
	ack, err = svc.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Matched != 0 || ack.Unmatched != 1 {
		t.Fatalf("duplicate ack = %+v, want matched 0 unmatched 1", ack)
	}
	cack, err := svc.ReportCleanups(CleanupReport{CleanupIDs: []string{"c-bogus"}})
	if err != nil {
		t.Fatal(err)
	}
	if cack.Matched != 0 || cack.Unmatched != 1 {
		t.Fatalf("cleanup ack = %+v, want matched 0 unmatched 1", cack)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`policy_report_unmatched_total{op="report_transfers"} 3`,
		`policy_report_unmatched_total{op="report_cleanups"} 1`,
	} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("scrape missing %q:\n%s", frag, buf.String())
		}
	}
}

// benchLeases loads a service with n active leases, each holding one
// in-progress transfer on its own host pair.
func benchLeases(b *testing.B, ttl float64, n int) *Service {
	b.Helper()
	cfg := DefaultConfig()
	cfg.LeaseTTL = ttl
	svc, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := svc.AdviseTransfers([]TransferSpec{{
			RequestID:  fmt.Sprintf("r%d", i),
			WorkflowID: fmt.Sprintf("wf%d", i),
			SourceURL:  fmt.Sprintf("gsiftp://src%d.example.org/data/f", i),
			DestURL:    fmt.Sprintf("gsiftp://dst%d.example.org/scratch/f", i),
		}}); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// BenchmarkLeaseScan measures the no-expiry clock tick — the steady-state
// cost a wall-clock ticker pays on every scan. It is O(active leases) and
// entirely off the advise hot path.
func BenchmarkLeaseScan(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("leases=%d", n), func(b *testing.B) {
			svc := benchLeases(b, 1e9, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Call[*ClockAdvance](context.Background(), svc, OpAdvanceClock, ClockOp{Now: float64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdviseLeaseOverhead compares the advise path with leases off and
// on: the lease upkeep an advise pays is one renewal for the calling
// workflow, independent of how the expiry scan scales.
func BenchmarkAdviseLeaseOverhead(b *testing.B) {
	for _, ttl := range []float64{0, 1e9} {
		name := "leases=off"
		if ttl > 0 {
			name = "leases=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.LeaseTTL = ttl
			svc, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv, err := svc.AdviseTransfers([]TransferSpec{{
					RequestID:  fmt.Sprintf("r%d", i),
					WorkflowID: "wf",
					SourceURL:  "gsiftp://src.example.org/data/f",
					DestURL:    fmt.Sprintf("gsiftp://dst.example.org/scratch/f%d", i),
				}})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := svc.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
