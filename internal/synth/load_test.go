package synth

import (
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/durable"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

// admittedServer spins up a policy server whose mutations pass through a
// real admission controller. batchDelay > 0 adds a fixed cost per batch
// (standing in for the group-commit fsync) so small queues saturate at a
// predictable offered load.
func admittedServer(t testing.TB, cfg admit.Config, batchDelay time.Duration) *httptest.Server {
	ts, _ := admittedStack(t, cfg, batchDelay, nil)
	return ts
}

// admittedStack is admittedServer returning its controller too. A non-nil
// mlog wraps the service's durable store (in a temporary data dir) as its
// mutation log, so batches run the pipelined group commit for real.
func admittedStack(t testing.TB, cfg admit.Config, batchDelay time.Duration,
	mlog func(policy.MutationLog) policy.MutationLog) (*httptest.Server, *admit.Controller) {
	t.Helper()
	pcfg := policy.DefaultConfig()
	pcfg.DefaultThreshold = 1 << 30 // never throttle on streams; this measures admission
	pcfg.DefaultStreams = 2
	svc, err := policy.New(pcfg)
	if err != nil {
		t.Fatalf("policy.New: %v", err)
	}
	if mlog != nil {
		ps, _, err := durable.OpenPolicyStore(t.TempDir(), svc, durable.Options{})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		t.Cleanup(func() { ps.Close() })
		svc.SetMutationLog(mlog(ps))
	}
	srv := policyhttp.NewServer(svc, nil)
	run := policyhttp.ServiceRunner(svc)
	ctl := admit.New(cfg, func(batch []any) {
		if batchDelay > 0 {
			time.Sleep(batchDelay)
		}
		run(batch)
	})
	srv.SetAdmission(ctl)
	t.Cleanup(ctl.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, ctl
}

// flushDelay is the durable smoke's device: the store runs without
// fsync(2) and every Sync costs a fixed millisecond after it.
type flushDelay struct{ policy.MutationLog }

func (f flushDelay) Sync(seq uint64) error {
	err := f.MutationLog.Sync(seq)
	time.Sleep(time.Millisecond)
	return err
}

// loadClient builds one worker client: no retries, so a shed surfaces as
// a 429 instead of disappearing into the retry loop.
func loadClient(ts *httptest.Server) AdviceClient {
	return policyhttp.NewClient(ts.URL, policyhttp.WithRetry(policyhttp.RetryPolicy{MaxAttempts: 1}))
}

func runPoint(t testing.TB, ts *httptest.Server, clients, ops int) *LoadResult {
	t.Helper()
	res, err := RunLoad(LoadConfig{
		Clients:      clients,
		OpsPerClient: ops,
		IsBusy:       policyhttp.IsBusy,
	}, func(int) AdviceClient { return loadClient(ts) })
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	return res
}

// TestLoadSmokeShedNotCollapse is the CI-sized saturation check: a small
// bounded queue in front of a deliberately slowed batch runner, driven at
// roughly 4x its capacity. Overload must be handled by shedding — fast
// 429s, bounded success latency, and goodput that holds up rather than
// collapsing as offered load climbs past saturation.
func TestLoadSmokeShedNotCollapse(t *testing.T) {
	cfg := admit.Config{MaxQueue: 8, MaxWait: 5 * time.Millisecond, BatchMax: 4}
	const batchDelay = 300 * time.Microsecond
	ts := admittedServer(t, cfg, batchDelay)

	// Warm the path (connection setup, first-batch allocations).
	runPoint(t, ts, 1, 10)

	low := runPoint(t, ts, 2, 60)
	high := runPoint(t, ts, 32, 60)
	t.Logf("low:  %+v", low)
	t.Logf("high: %+v", high)

	if low.Errors != 0 || high.Errors != 0 {
		t.Fatalf("hard errors under load: low=%d high=%d", low.Errors, high.Errors)
	}
	if high.Shed == 0 {
		t.Error("4x-saturation run shed nothing; the queue bound is not engaging")
	}
	if high.Successes == 0 {
		t.Fatal("4x-saturation run admitted nothing; total collapse")
	}
	// Goodput must not collapse past saturation: allow halving (scheduler
	// noise on small CI machines) but not free fall.
	if low.GoodputPerSec > 0 && high.GoodputPerSec < 0.5*low.GoodputPerSec {
		t.Errorf("goodput collapsed past saturation: %.0f/s at low load, %.0f/s at 4x",
			low.GoodputPerSec, high.GoodputPerSec)
	}
	// Bounded queues bound latency: a successful op waits at most the
	// queue budget plus a few batch executions; give CI a wide margin.
	if high.P99 > 500*time.Millisecond {
		t.Errorf("p99 under overload = %v; bounded queues should keep this far lower", high.P99)
	}
	// Sheds are refusals, not timeouts: they must come back fast.
	if high.ShedP99 > 250*time.Millisecond {
		t.Errorf("shed p99 = %v; rejections must be immediate", high.ShedP99)
	}
}

// TestLoadSmokeDurable is the smoke's durable point: the admitted stack
// over a durable store whose every Sync costs 1 ms, driven far past
// saturation. The dispatcher no longer waits for each flush, but admission
// must still feel it: overload sheds fast 429s, p99 stays bounded, and
// the mutate depth never exceeds MaxQueue plus two batches (one applying,
// one committing).
func TestLoadSmokeDurable(t *testing.T) {
	cfg := admit.Config{MaxQueue: 8, MaxWait: 5 * time.Millisecond, BatchMax: 4}
	ts, ctl := admittedStack(t, cfg, 0, func(l policy.MutationLog) policy.MutationLog { return flushDelay{l} })
	runPoint(t, ts, 1, 10)

	var maxDepth atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if d := int64(ctl.Depth(admit.ClassMutate)); d > maxDepth.Load() {
				maxDepth.Store(d)
			}
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	low := runPoint(t, ts, 2, 60)
	high := runPoint(t, ts, 32, 60)
	close(stop)
	<-sampled
	t.Logf("low:  %+v", low)
	t.Logf("high: %+v", high)
	t.Logf("max mutate depth %d", maxDepth.Load())

	if low.Errors != 0 || high.Errors != 0 {
		t.Fatalf("hard errors under load: low=%d high=%d", low.Errors, high.Errors)
	}
	if high.Shed == 0 {
		t.Error("overloaded durable run shed nothing; admission does not feel the flush")
	}
	if high.Successes == 0 {
		t.Fatal("overloaded durable run admitted nothing; total collapse")
	}
	if bound := int64(cfg.MaxQueue + 2*cfg.BatchMax); maxDepth.Load() > bound {
		t.Errorf("mutate depth reached %d, bound is MaxQueue + 2 batches = %d", maxDepth.Load(), bound)
	}
	if high.P99 > 500*time.Millisecond {
		t.Errorf("p99 under overload = %v; bounded queues should keep this far lower", high.P99)
	}
	if high.ShedP99 > 250*time.Millisecond {
		t.Errorf("shed p99 = %v; rejections must be immediate", high.ShedP99)
	}
}

// TestLoadSaturationCurve sweeps offered load and prints the saturation
// table for EXPERIMENTS.md. Heavy; gated behind POLICYFLOW_LOAD_CURVE=1.
func TestLoadSaturationCurve(t *testing.T) {
	if os.Getenv("POLICYFLOW_LOAD_CURVE") == "" {
		t.Skip("set POLICYFLOW_LOAD_CURVE=1 to run the full saturation sweep")
	}
	cfg := admit.Config{MaxQueue: 64, MaxWait: 10 * time.Millisecond, BatchMax: 16}
	const batchDelay = 500 * time.Microsecond
	ts := admittedServer(t, cfg, batchDelay)
	runPoint(t, ts, 1, 20) // warm-up

	t.Log("| clients | offered/s | goodput/s |  shed%  |      p50 |      p99 |")
	t.Log("|---------|-----------|-----------|---------|----------|----------|")
	for _, clients := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		res := runPoint(t, ts, clients, 100)
		t.Log(res.String())
	}
}

// BenchmarkAdmittedAdvise measures one advise+report round trip through
// the full admitted stack — HTTP, admission queue, batch dispatch, one
// group commit — with an unsaturated queue. This is the benchjson series
// guarding the admission layer's overhead on the happy path.
func BenchmarkAdmittedAdvise(b *testing.B) {
	ts := admittedServer(b, admit.Config{MaxQueue: 256, MaxWait: time.Second, BatchMax: 32}, 0)
	c := loadClient(ts)
	specs := make([]policy.TransferSpec, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range specs {
			specs[j] = policy.TransferSpec{
				RequestID:  "bench",
				WorkflowID: "wf-bench",
				SourceURL:  "gsiftp://alamo.futuregrid.tacc.example.org/load/bench.dat",
				DestURL:    "file://obelix.isi.example.org/scratch/load/bench.dat",
				SizeBytes:  64 << 20,
			}
		}
		adv, err := c.AdviseTransfers(specs)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, 0, len(adv.Transfers))
		for _, tr := range adv.Transfers {
			ids = append(ids, tr.ID)
		}
		if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: ids}); err != nil {
			b.Fatal(err)
		}
	}
}
