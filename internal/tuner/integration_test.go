package tuner

import (
	"context"
	"fmt"
	"testing"

	"policyflow/internal/policy"
)

// TestOnlineTuningLoop exercises the full closed loop the tuner enables:
// the transfer tool reports timings -> the policy service's observer
// feeds a throughput window -> each full window rewards a hill climber ->
// the climber's new threshold is applied to the service via SetThreshold,
// changing subsequent allocations.
func TestOnlineTuningLoop(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = 200 // deliberately over-allocated at the start
	cfg.DefaultStreams = 8
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const src = "gsiftp://src.example.org"
	const dst = "file://dst.example.org"
	pair := policy.HostPair{Src: "src.example.org", Dst: "dst.example.org"}

	climber, err := NewHillClimber(200, 40, 20, 250)
	if err != nil {
		t.Fatal(err)
	}
	var applied []int
	window := NewThroughputWindow(4, func(p policy.HostPair, goodput float64) {
		climber.Record(climber.Next(), goodput)
		next := climber.Next()
		if _, err := svc.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: p.Src, DestHost: p.Dst, Max: next}); err != nil {
			t.Errorf("SetThreshold: %v", err)
		}
		applied = append(applied, next)
	})
	svc.SetObserver(func(p policy.HostPair, streams int, size int64, seconds float64) {
		window.Observe(Timing{Pair: p, Streams: streams, Bytes: size, Seconds: seconds})
	})

	// Synthetic testbed response: throughput improves as the threshold
	// drops toward 60 (matching the simulated knee).
	throughputAt := func(threshold int) float64 {
		g := 3.5
		if threshold > 65 {
			g *= 1 - 0.003*float64(threshold-65)
		}
		return g
	}

	seq := 0
	currentThreshold := func() int {
		// Read back what the service enforces by submitting a probe batch
		// is overkill; track via applied (initial 200).
		if len(applied) == 0 {
			return 200
		}
		return applied[len(applied)-1]
	}
	for batch := 0; batch < 12; batch++ {
		var specs []policy.TransferSpec
		for j := 0; j < 4; j++ {
			seq++
			specs = append(specs, policy.TransferSpec{
				RequestID:  fmt.Sprintf("r%04d", seq),
				WorkflowID: "wf",
				SourceURL:  fmt.Sprintf("%s/f%04d", src, seq),
				DestURL:    fmt.Sprintf("%s/f%04d", dst, seq),
				SizeBytes:  100 << 20,
			})
		}
		adv, err := svc.AdviseTransfers(specs)
		if err != nil {
			t.Fatal(err)
		}
		rep := policy.CompletionReport{}
		g := throughputAt(currentThreshold())
		for _, tr := range adv.Transfers {
			rep.TransferIDs = append(rep.TransferIDs, tr.ID)
			rep.Timings = append(rep.Timings, policy.TransferTiming{
				TransferID: tr.ID,
				Seconds:    float64(tr.SizeBytes) / (1 << 20) / g * 4, // 4 sharing
			})
		}
		if _, err := svc.ReportTransfers(rep); err != nil {
			t.Fatal(err)
		}
	}
	if len(applied) == 0 {
		t.Fatal("tuner never adjusted the threshold")
	}
	final := applied[len(applied)-1]
	if final >= 200 {
		t.Fatalf("threshold did not descend: applied = %v", applied)
	}
	if best := climber.Best(); best > 160 {
		t.Fatalf("climber best = %d, want descent below 160 (trail %v)", best, applied)
	}
	_ = pair
}

// TestObserverReceivesPairAndSize checks the service-side plumbing in
// isolation.
func TestObserverReceivesPairAndSize(t *testing.T) {
	cfg := policy.DefaultConfig()
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type obs struct {
		pair    policy.HostPair
		streams int
		size    int64
		secs    float64
	}
	var got []obs
	svc.SetObserver(func(p policy.HostPair, streams int, size int64, secs float64) {
		got = append(got, obs{p, streams, size, secs})
	})
	adv, err := svc.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf",
		SourceURL: "gsiftp://a.example.org/f",
		DestURL:   "file://b.example.org/f",
		SizeBytes: 42 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.ReportTransfers(policy.CompletionReport{
		TransferIDs: []string{adv.Transfers[0].ID},
		Timings:     []policy.TransferTiming{{TransferID: adv.Transfers[0].ID, Seconds: 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("observations = %d", len(got))
	}
	o := got[0]
	if o.pair.Src != "a.example.org" || o.pair.Dst != "b.example.org" ||
		o.size != 42<<20 || o.secs != 12 || o.streams != 4 {
		t.Fatalf("observation = %+v", o)
	}
	// Reports without timings never call the observer.
	got = nil
	adv2, err := svc.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r2", WorkflowID: "wf",
		SourceURL: "gsiftp://a.example.org/g",
		DestURL:   "file://b.example.org/g",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv2.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("observer called without timings: %+v", got)
	}
}
