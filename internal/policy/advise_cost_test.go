package policy

import (
	"testing"
)

// TestAdviseSteadyStateAllocs pins the allocation cost of the paper's
// policy call on a warmed service: one fresh file advised and reported.
// The rule engine's share is zero in steady state (seeds, activations and
// the firing Context are recycled; probes and index maintenance box no
// keys), so what remains is the facts themselves, the advice, the decision
// record and the benchmark's own request strings.
func TestAdviseSteadyStateAllocs(t *testing.T) {
	svc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	round := 0
	for ; round < 50; round++ {
		adviseReportBatch(t, svc, round, 1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		adviseReportBatch(t, svc, round, 1)
		round++
	})
	if allocs > 150 {
		t.Fatalf("single-spec advise+report = %.0f allocs, want <= 150", allocs)
	}
}

// TestAdviseProbesLinearInBatch counts join probes, not time: the engine's
// repair work per file must not grow with the transfer list the way the
// dirty-rule full re-join did (every firing re-joined every submitted
// transfer under every rule: ~120 probes per file per co-submitted file,
// 100x the single-file cost at n=100). What still grows is inherent to the
// rule set, not the matcher: every allocation and every completion updates
// the pair's stream ledger, and each still-pending transfer has a tuple
// that binds that ledger (greedy-allocate, transfer-completed) or a
// negation that examines it (transfer-create-ledger) — 8 probes per firing
// and pending transfer, so ~4 per file per co-submitted file.
func TestAdviseProbesLinearInBatch(t *testing.T) {
	perFile := func(n int) float64 {
		svc, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		adviseReportBatch(t, svc, -1, n)
		before := svc.session.Probes()
		const rounds = 3
		for r := 0; r < rounds; r++ {
			adviseReportBatch(t, svc, r, n)
		}
		return float64(svc.session.Probes()-before) / float64(rounds*n)
	}
	one, hundred := perFile(1), perFile(100)
	t.Logf("probes per file: n=1 %.0f, n=100 %.0f (%.2fx)", one, hundred, hundred/one)
	if fanout := (hundred - one) / 100; fanout > 4.5 {
		t.Fatalf("per-file probes grow by %.1f per co-submitted file (n=1 %.0f, n=100 %.0f), want <= 4.5", fanout, one, hundred)
	}
	if hundred > 5*one {
		t.Fatalf("per-file probes at n=100 = %.0f, more than 5x the %.0f at n=1", hundred, one)
	}
}
