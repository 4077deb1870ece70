package faultsim

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"policyflow/internal/policy"
)

// defaultSchedules is how many randomized schedules TestFaultSim runs by
// default; FAULTSIM_SCHEDULES overrides it and FAULTSIM_SEED rebases the
// seed sequence (seed i of a run is base+i; a seed inside the default range
// is replayed by running its subtest, one outside it with
// FAULTSIM_SEED=<seed> FAULTSIM_SCHEDULES=1).
const (
	defaultSchedules = 1000
	defaultBaseSeed  = 20260806
)

func envInt(t *testing.T, name string, def int64) int64 {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad %s=%q: %v", name, v, err)
	}
	return n
}

// TestFaultSim is the model checker: it runs many randomized schedules of
// workflow operations against an epoch-fenced primary/standby pair,
// interleaved with scripted failover episodes (sync, partition, promote,
// heal, fence probe, demote, sync), crash-restarts, torn WAL tails,
// disk-write faults and admission sheds on either node, and HTTP-level
// network faults. After every step it checks the reference model, that
// acks come only from the expected primary at the expected epoch, that a
// promotion lands at exactly epoch+1 with no acknowledged write lost, that
// a deposed primary fences the probe, that a synced standby is
// byte-identical to the oracle, and exactly-once decision provenance. On
// failure it shrinks the trace to a locally minimal reproduction and
// prints the seed, the schedule configuration and the minimal trace.
func TestFaultSim(t *testing.T) {
	schedules := int(envInt(t, "FAULTSIM_SCHEDULES", defaultSchedules))
	baseSeed := envInt(t, "FAULTSIM_SEED", defaultBaseSeed)
	runSchedules(t, schedules, baseSeed, randomSchedule)
}

// runSchedules runs one schedule per seed in parallel subtests, shrinking
// and printing any failure, and afterwards guards the generator: every
// fault kind the one schedule grammar promises must actually have been
// exercised, or the model-checking of it silently stopped happening.
func runSchedules(t *testing.T, schedules int, baseSeed int64, mk func(int64) Schedule) {
	var mu sync.Mutex
	totalFaults := make(map[string]int)

	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, kind := range []string{
			OpPartition, OpPromote, OpFenceProbe, OpCrash, OpTornCrash, OpDiskFault, OpShed,
			unackedOp, failedSync,
			string(FaultLoseRequest), string(FaultDropResponse), string(Fault503), string(FaultDuplicate),
		} {
			if totalFaults[kind] == 0 {
				t.Errorf("schedules never exercised %q (faults: %v) — generator drifted", kind, totalFaults)
			}
		}
	})

	for i := 0; i < schedules; i++ {
		seed := baseSeed + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sched := mk(seed)
			trace, faults, err := runSchedule(t.TempDir(), sched)
			mu.Lock()
			for k, n := range faults {
				totalFaults[k] += n
			}
			mu.Unlock()
			if err == nil {
				return
			}
			minTrace := shrink(trace, func(candidate []Op) bool {
				return replayTrace(t.TempDir(), sched, candidate) != nil
			})
			minErr := replayTrace(t.TempDir(), sched, minTrace)
			schedJSON, _ := json.Marshal(sched)
			traceJSON, _ := json.MarshalIndent(minTrace, "", "  ")
			t.Fatalf("invariant violation at seed %d: %v\n\nreplay: go test ./internal/faultsim -run '^%s$'\nschedule: %s\nminimal trace (%d of %d ops, fails with: %v):\n%s",
				seed, err, t.Name(), schedJSON, len(minTrace), len(trace), minErr, traceJSON)
		})
	}
}

// TestFaultSimDeterministicReplay proves a seed fully determines a run:
// the same seed must generate the identical trace and the identical
// outcome twice, and replaying the recorded trace must match too.
func TestFaultSimDeterministicReplay(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20260806} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkDeterministic(t, randomSchedule(seed))
		})
	}
}

func checkDeterministic(t *testing.T, sched Schedule) {
	t.Helper()
	trace1, _, err1 := runSchedule(t.TempDir(), sched)
	trace2, _, err2 := runSchedule(t.TempDir(), sched)
	j1, _ := json.Marshal(trace1)
	j2, _ := json.Marshal(trace2)
	if string(j1) != string(j2) {
		t.Fatalf("same seed generated different traces:\n  run1 %s\n  run2 %s", j1, j2)
	}
	if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
		t.Fatalf("same seed produced different outcomes: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return // a failing seed replays identically; nothing more to check
	}
	if err := replayTrace(t.TempDir(), sched, trace1); err != nil {
		t.Fatalf("replaying a passing trace failed: %v", err)
	}
}

// passingSchedule is a fixed fault-free configuration for the detector
// self-tests below.
func passingSchedule() Schedule {
	return Schedule{Seed: 1, Config: ScheduleConfig{
		Algorithm:      policy.AlgoGreedy,
		Threshold:      4,
		DefaultStreams: 2,
		ClusterFactor:  1,
		OpCount:        4,
		FaultProb:      0,
	}}
}

func adviseOp(reqID, file string, faults ...FaultSpec) Op {
	return Op{
		Kind:   OpAdvise,
		Faults: faults,
		Specs: []policy.TransferSpec{{
			RequestID:  reqID,
			WorkflowID: "wf-a",
			SourceURL:  "gsiftp://hostA/data/" + file,
			DestURL:    "gsiftp://hostB/data/" + file,
		}},
	}
}

// TestHarnessDetectsBrokenIdempotency proves the harness is a working
// detector: a duplicated delivery with the idempotency key stripped
// double-applies the mutation on the primary, and the harness must flag
// the divergence. (The schedule generator never draws this fault kind —
// it exists exactly for this self-test.)
func TestHarnessDetectsBrokenIdempotency(t *testing.T) {
	trace := []Op{adviseOp("r-1", "f-01", FaultSpec{Replica: 0, Kind: FaultDuplicateNoKey})}
	err := replayTrace(t.TempDir(), passingSchedule(), trace)
	if err == nil {
		t.Fatal("double application with no idempotency key went undetected")
	}
	t.Logf("detected as: %v", err)
}

// TestHarnessDetectsModelCorruption proves the model side of the detector:
// with reference counting deliberately broken in the model, a plain
// successful advise must be reported as a divergence.
func TestHarnessDetectsModelCorruption(t *testing.T) {
	h, err := newHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.model.CorruptRefcounts = true
	if err := h.exec(adviseOp("r-1", "f-01")); err == nil {
		t.Fatal("corrupted reference-count model not detected")
	}
}

// TestShrinkMinimizesFailingTrace pads a failing op with benign traffic
// and checks the shrinker strips all of it.
func TestShrinkMinimizesFailingTrace(t *testing.T) {
	sched := passingSchedule()
	trace := []Op{
		adviseOp("r-1", "f-01"),
		adviseOp("r-2", "f-02"),
		{Kind: OpSetThreshold, SrcHost: "hostA", DstHost: "hostB", Max: 3},
		adviseOp("r-3", "f-03", FaultSpec{Replica: 0, Kind: FaultDuplicateNoKey}),
		{Kind: OpSnapshot, Replica: 0},
		adviseOp("r-4", "f-04"),
	}
	if err := replayTrace(t.TempDir(), sched, trace); err == nil {
		t.Fatal("constructed trace unexpectedly passes")
	}
	minTrace := shrink(trace, func(candidate []Op) bool {
		return replayTrace(t.TempDir(), sched, candidate) != nil
	})
	if len(minTrace) != 1 {
		j, _ := json.MarshalIndent(minTrace, "", "  ")
		t.Fatalf("shrunk to %d ops, want 1:\n%s", len(minTrace), j)
	}
	if len(minTrace[0].Faults) != 1 || minTrace[0].Faults[0].Kind != FaultDuplicateNoKey {
		t.Fatalf("shrink kept the wrong op: %+v", minTrace[0])
	}
}
