package policyflow_test

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"policyflow"
)

// TestFacadeQuickstart exercises the README quickstart path through the
// public API only.
func TestFacadeQuickstart(t *testing.T) {
	svc, err := policyflow.NewPolicyService(policyflow.DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	advice, err := svc.AdviseTransfers([]policyflow.TransferSpec{{
		RequestID:  "r1",
		WorkflowID: "wf1",
		SourceURL:  "gsiftp://data.example.org/input/a.dat",
		DestURL:    "file://cluster.example.org/scratch/a.dat",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Transfers) != 1 || advice.Transfers[0].Streams != 4 {
		t.Fatalf("advice = %+v", advice)
	}
	if _, err := svc.ReportTransfers(policyflow.CompletionReport{
		TransferIDs: []string{advice.Transfers[0].ID},
	}); err != nil {
		t.Fatal(err)
	}
	if snap := svc.Snapshot(); snap.StagedResources != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestFacadeMontageAndDAX(t *testing.T) {
	cfg := policyflow.DefaultMontageConfig(0)
	cfg.GridSize = 3
	w, err := policyflow.GenerateMontage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteDAX(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := policyflow.ReadDAX(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs()) != len(w.Jobs()) {
		t.Fatalf("DAX round trip lost jobs: %d vs %d", len(got.Jobs()), len(w.Jobs()))
	}
	plan, err := got.Plan(policyflow.PlanConfig{
		WorkflowID:        "facade",
		ComputeSiteBase:   "file://cluster.example.org/scratch",
		PriorityAlgorithm: policyflow.PriorityDependent,
		Cleanup:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	count := map[policyflow.TaskType]int{}
	for _, task := range plan.Tasks {
		count[task.Type]++
	}
	if count[policyflow.TaskStageIn] == 0 || count[policyflow.TaskCleanup] == 0 {
		t.Fatalf("plan = %d stage-in, %d cleanup", count[policyflow.TaskStageIn], count[policyflow.TaskCleanup])
	}
}

func TestFacadeScenario(t *testing.T) {
	m, err := policyflow.RunMontageScenario(policyflow.Scenario{
		ExtraMB:        10,
		UsePolicy:      true,
		Algorithm:      policyflow.AlgoGreedy,
		Threshold:      50,
		DefaultStreams: 4,
		GridSize:       3,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed || m.MakespanSeconds <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFacadeRESTAndReplication(t *testing.T) {
	svc, err := policyflow.NewPolicyService(policyflow.DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(policyflow.NewPolicyServer(svc, nil))
	defer ts.Close()
	c := policyflow.NewPolicyClient(ts.URL)
	cx := policyflow.NewPolicyClient(ts.URL, policyflow.WithXML())
	for _, client := range []*policyflow.PolicyClient{c, cx} {
		if err := client.Healthz(); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := policyflow.NewReplicatedPolicyClient(c)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := rc.AdviseTransfers([]policyflow.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf",
		SourceURL: "gsiftp://a.example.org/f",
		DestURL:   "file://b.example.org/f",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 1 {
		t.Fatalf("advice = %+v", adv)
	}
	var dump *policyflow.StateDump = svc.ExportState()
	if len(dump.Transfers) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
}

func TestFacadeSynthetic(t *testing.T) {
	for _, shape := range []policyflow.SynthShape{
		policyflow.ShapeChain, policyflow.ShapeFanOut, policyflow.ShapeFanIn,
		policyflow.ShapeDiamond, policyflow.ShapeRandom,
	} {
		w, err := policyflow.GenerateSynthetic(policyflow.SynthConfig{
			Shape: shape, Jobs: 6, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if len(w.Jobs()) != 6 {
			t.Fatalf("%s: jobs = %d", shape, len(w.Jobs()))
		}
	}
}

func TestFacadeTuneThreshold(t *testing.T) {
	h, err := policyflow.NewHillClimber(100, 25, 25, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := policyflow.TuneThreshold(10, 3, h, policyflow.ExperimentOptions{
		Trials: 1, GridSize: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Episodes) != 3 {
		t.Fatalf("episodes = %d", len(res.Episodes))
	}
}

func TestFacadeTuner(t *testing.T) {
	u, err := policyflow.NewUCB1(policyflow.DefaultTunerArms(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var l policyflow.ThresholdLearner = u
	a := l.Next()
	l.Record(a, 1.0)
	if l.Best() <= 0 {
		t.Fatal("no best arm")
	}
	h, err := policyflow.NewHillClimber(100, 20, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if h.Next() != 100 {
		t.Fatalf("climber start = %d", h.Next())
	}
}
