package workflow

import (
	"slices"
	"strings"
	"testing"

	"policyflow/internal/dag"
)

// smallWF builds: stage-in-able inputs in1,in2 (external), job A(in1)->f1,
// job B(in2)->f2, job C(f1,f2)->out (final output).
func smallWF(t *testing.T) *Workflow {
	t.Helper()
	w := New("small")
	w.MustAddFile(&File{Name: "in1", SizeBytes: 10 << 20, SourceURL: "gsiftp://data.example.org/in1"})
	w.MustAddFile(&File{Name: "in2", SizeBytes: 20 << 20, SourceURL: "gsiftp://data.example.org/in2"})
	w.MustAddFile(&File{Name: "f1", SizeBytes: 1 << 20})
	w.MustAddFile(&File{Name: "f2", SizeBytes: 1 << 20})
	w.MustAddFile(&File{Name: "out", SizeBytes: 5 << 20, Output: true})
	w.MustAddJob(&Job{ID: "A", Transformation: "tA", RuntimeSeconds: 10, Inputs: []string{"in1"}, Outputs: []string{"f1"}})
	w.MustAddJob(&Job{ID: "B", Transformation: "tB", RuntimeSeconds: 10, Inputs: []string{"in2"}, Outputs: []string{"f2"}})
	w.MustAddJob(&Job{ID: "C", Transformation: "tC", RuntimeSeconds: 5, Inputs: []string{"f1", "f2"}, Outputs: []string{"out"}})
	return w
}

func planCfg() PlanConfig {
	return PlanConfig{
		WorkflowID:      "wf1",
		ComputeSiteBase: "file://obelix.example.org/scratch",
		OutputSiteBase:  "file://storage.example.org/results",
		Cleanup:         true,
	}
}

func TestModelValidation(t *testing.T) {
	w := New("v")
	if err := w.AddFile(&File{}); err == nil {
		t.Error("empty file name accepted")
	}
	w.MustAddFile(&File{Name: "x"})
	if err := w.AddFile(&File{Name: "x"}); err == nil {
		t.Error("duplicate file accepted")
	}
	if err := w.AddJob(&Job{ID: "j", Inputs: []string{"missing"}}); err == nil {
		t.Error("unknown input accepted")
	}
	if err := w.AddJob(&Job{ID: "j", Outputs: []string{"missing"}}); err == nil {
		t.Error("unknown output accepted")
	}
	w.MustAddFile(&File{Name: "ext", SourceURL: "http://e/x"})
	if err := w.AddJob(&Job{ID: "j", Outputs: []string{"ext"}}); err == nil {
		t.Error("producing an external input accepted")
	}
	w.MustAddJob(&Job{ID: "p1", Outputs: []string{"x"}})
	if err := w.AddJob(&Job{ID: "p2", Outputs: []string{"x"}}); err == nil {
		t.Error("two producers accepted")
	}
	if err := w.AddJob(&Job{ID: "p1"}); err == nil {
		t.Error("duplicate job ID accepted")
	}
}

func TestValidateConsumedUnproduced(t *testing.T) {
	w := New("v2")
	w.MustAddFile(&File{Name: "ghost"}) // not external, no producer
	w.MustAddJob(&Job{ID: "j", Inputs: []string{"ghost"}})
	if err := w.Validate(); err == nil {
		t.Fatal("consuming unproduced file accepted")
	}
}

func TestJobGraph(t *testing.T) {
	w := smallWF(t)
	g, err := w.JobGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(g.Children("A"), "C") || !slices.Contains(g.Children("B"), "C") {
		t.Fatal("missing data-dependency edges")
	}
	if slices.Contains(g.Children("A"), "B") {
		t.Fatal("phantom edge")
	}
}

func TestPlanBasics(t *testing.T) {
	w := smallWF(t)
	p, err := w.Plan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Count(TaskCompute); got != 3 {
		t.Fatalf("compute tasks = %d", got)
	}
	// One stage-in per compute job with external inputs: A and B.
	if got := p.Count(TaskStageIn); got != 2 {
		t.Fatalf("stage-in tasks = %d", got)
	}
	if got := p.Count(TaskStageOut); got != 1 {
		t.Fatalf("stage-out tasks = %d", got)
	}
	// Cleanup per site file: in1, in2, f1, f2, out.
	if got := p.Count(TaskCleanup); got != 5 {
		t.Fatalf("cleanup tasks = %d", got)
	}
	// Dependencies: stage_in_A -> A -> C -> stage_out_C.
	for _, e := range [][2]string{
		{"stage_in_A", "A"}, {"stage_in_B", "B"},
		{"A", "C"}, {"B", "C"}, {"C", "stage_out_C"},
	} {
		if !slices.Contains(p.Graph.Children(e[0]), e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if !p.Graph.IsAcyclic() {
		t.Fatal("plan graph cyclic")
	}
	// Stage-in transfer URLs.
	si, _ := p.Task("stage_in_A")
	if len(si.Transfers) != 1 {
		t.Fatalf("stage_in_A transfers = %+v", si.Transfers)
	}
	op := si.Transfers[0]
	if op.SourceURL != "gsiftp://data.example.org/in1" {
		t.Errorf("source = %s", op.SourceURL)
	}
	if want := "file://obelix.example.org/scratch/wf1/in1"; op.DestURL != want {
		t.Errorf("dest = %s, want %s", op.DestURL, want)
	}
}

func TestCleanupDependsOnAllReaders(t *testing.T) {
	w := smallWF(t)
	p, err := w.Plan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Find cleanup task for f1: must depend on A (producer) and C
	// (consumer), not on B.
	var cu *Task
	for _, task := range p.TasksOf(TaskCleanup) {
		if strings.HasSuffix(task.ID, "_f1") {
			cu = task
		}
	}
	if cu == nil {
		t.Fatal("no cleanup for f1")
	}
	parents := p.Graph.Parents(cu.ID)
	has := func(id string) bool {
		for _, x := range parents {
			if x == id {
				return true
			}
		}
		return false
	}
	if !has("A") || !has("C") {
		t.Fatalf("cleanup parents = %v", parents)
	}
	if has("B") {
		t.Fatalf("cleanup for f1 depends on unrelated job B: %v", parents)
	}
	// Cleanup of "out" must wait for stage-out.
	var co *Task
	for _, task := range p.TasksOf(TaskCleanup) {
		if strings.HasSuffix(task.ID, "_out") {
			co = task
		}
	}
	if co == nil {
		t.Fatal("no cleanup for out")
	}
	found := false
	for _, par := range p.Graph.Parents(co.ID) {
		if par == "stage_out_C" {
			found = true
		}
	}
	if !found {
		t.Fatal("cleanup of final output does not wait for stage-out")
	}
}

func TestNoCleanupWhenDisabled(t *testing.T) {
	w := smallWF(t)
	cfg := planCfg()
	cfg.Cleanup = false
	p, err := w.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Count(TaskCleanup); got != 0 {
		t.Fatalf("cleanup tasks = %d", got)
	}
}

func TestNoStageOutWithoutOutputSite(t *testing.T) {
	w := smallWF(t)
	cfg := planCfg()
	cfg.OutputSiteBase = ""
	p, err := w.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Count(TaskStageOut); got != 0 {
		t.Fatalf("stage-out tasks = %d", got)
	}
}

// fanWF: one level with n jobs, each consuming its own external input.
func fanWF(t *testing.T, n int) *Workflow {
	t.Helper()
	w := New("fan")
	for i := 0; i < n; i++ {
		id := string(rune('a' + i))
		w.MustAddFile(&File{Name: "in_" + id, SizeBytes: 1 << 20, SourceURL: "http://data.example.org/" + id})
		w.MustAddFile(&File{Name: "out_" + id, SizeBytes: 1 << 20})
		w.MustAddJob(&Job{ID: "job_" + id, RuntimeSeconds: 1, Inputs: []string{"in_" + id}, Outputs: []string{"out_" + id}})
	}
	return w
}

func TestClusteringMergesStageIns(t *testing.T) {
	w := fanWF(t, 6)
	cfg := planCfg()
	cfg.ClusterFactor = 2
	p, err := w.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sis := p.TasksOf(TaskStageIn)
	if len(sis) != 2 {
		t.Fatalf("clustered stage-ins = %d, want 2", len(sis))
	}
	totalOps := 0
	for _, si := range sis {
		totalOps += len(si.Transfers)
		if si.ClusterID == "" {
			t.Error("clustered task missing ClusterID")
		}
		// Each clustered stage-in must feed the compute jobs whose
		// transfers it carries.
		children := map[string]bool{}
		for _, c := range p.Graph.Children(si.ID) {
			children[c] = true
		}
		for _, op := range si.Transfers {
			jobID := "job_" + strings.TrimPrefix(op.FileName, "in_")
			if !children[jobID] {
				t.Errorf("cluster %s carries %s but does not feed %s", si.ID, op.FileName, jobID)
			}
		}
	}
	if totalOps != 6 {
		t.Fatalf("total transfers = %d, want 6", totalOps)
	}
	if !p.Graph.IsAcyclic() {
		t.Fatal("clustered plan cyclic")
	}
}

func TestNoClusteringSingletons(t *testing.T) {
	w := fanWF(t, 6)
	cfg := planCfg()
	cfg.ClusterFactor = 0
	p, err := w.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sis := p.TasksOf(TaskStageIn)
	if len(sis) != 6 {
		t.Fatalf("stage-ins = %d, want 6", len(sis))
	}
	for _, si := range sis {
		if si.ClusterID != si.ID {
			t.Errorf("singleton cluster ID = %q, want %q", si.ClusterID, si.ID)
		}
	}
}

func TestPriorityPropagation(t *testing.T) {
	w := smallWF(t)
	cfg := planCfg()
	cfg.PriorityAlgorithm = dag.Dependent
	p, err := w.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Task("A")
	c, _ := p.Task("C")
	if a.Priority <= c.Priority {
		t.Fatalf("A priority %d should exceed C %d (A has descendants)", a.Priority, c.Priority)
	}
	siA, _ := p.Task("stage_in_A")
	if siA.Priority != a.Priority {
		t.Fatalf("stage_in_A priority %d != A %d", siA.Priority, a.Priority)
	}
}

func TestPlanConfigValidation(t *testing.T) {
	w := smallWF(t)
	if _, err := w.Plan(PlanConfig{ComputeSiteBase: "x"}); err == nil {
		t.Error("missing WorkflowID accepted")
	}
	if _, err := w.Plan(PlanConfig{WorkflowID: "x"}); err == nil {
		t.Error("missing ComputeSiteBase accepted")
	}
	bad := planCfg()
	bad.ClusterFactor = -1
	if _, err := w.Plan(bad); err == nil {
		t.Error("negative ClusterFactor accepted")
	}
}

func TestStats(t *testing.T) {
	w := smallWF(t)
	s := w.Stats()
	if s.Jobs != 3 || s.Files != 5 || s.ExternalInputs != 2 || s.Outputs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalInputMB != 30 {
		t.Fatalf("TotalInputMB = %v", s.TotalInputMB)
	}
}
