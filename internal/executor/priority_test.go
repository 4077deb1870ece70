package executor

import (
	"fmt"
	"testing"

	"policyflow/internal/dag"
	"policyflow/internal/simnet"
	"policyflow/internal/transfer"
	"policyflow/internal/workflow"
)

// asymmetricWF builds a workflow where structure-based priorities produce
// a distinct staging order: a chain head (many descendants) and
// independent leaves, each with its own staged input.
func asymmetricWF(t *testing.T) *workflow.Workflow {
	t.Helper()
	w := workflow.New("asym")
	ext := func(name string) string {
		w.MustAddFile(&workflow.File{Name: name, SizeBytes: 7 << 20,
			SourceURL: "gsiftp://src.example.org/" + name})
		return name
	}
	internal := func(name string) string {
		w.MustAddFile(&workflow.File{Name: name, SizeBytes: 1 << 20})
		return name
	}
	// Chain: c0 -> c1 -> c2 (c0 has 2 descendants).
	w.MustAddJob(&workflow.Job{ID: "c0", RuntimeSeconds: 1,
		Inputs: []string{ext("in_c0")}, Outputs: []string{internal("f0")}})
	w.MustAddJob(&workflow.Job{ID: "c1", RuntimeSeconds: 1,
		Inputs: []string{"f0", ext("in_c1")}, Outputs: []string{internal("f1")}})
	w.MustAddJob(&workflow.Job{ID: "c2", RuntimeSeconds: 1,
		Inputs: []string{"f1", ext("in_c2")}, Outputs: []string{internal("f2")}})
	// Leaves with no descendants.
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("leaf%d", i)
		w.MustAddJob(&workflow.Job{ID: id, RuntimeSeconds: 1,
			Inputs:  []string{ext("in_" + id)},
			Outputs: []string{internal("out_" + id)}})
	}
	return w
}

// TestPriorityOrdersStagingSlots: with one staging slot, the dependent
// priority algorithm must stage the chain head before the leaves, even
// though the leaves were added later (or earlier) in plan order.
func TestPriorityOrdersStagingSlots(t *testing.T) {
	w := asymmetricWF(t)
	plan, err := w.Plan(workflow.PlanConfig{
		WorkflowID:        "wf1",
		ComputeSiteBase:   "file://obelix.example.org/scratch",
		PriorityAlgorithm: dag.Dependent,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := simnet.NewEnv(1)
	fab := transfer.NewSimFabric(env, quietConfigFor)
	ptt, err := transfer.New(transfer.Config{Fabric: fab, DefaultStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.StagingSlots = 1
	cores := env.NewResource("cores", cfg.ComputeCores)
	slots := env.NewResource("slots", 1)
	h, err := Start(env, plan, ptt, cores, slots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(0)
	res, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	// All root staging tasks queue at t=0 on the single slot. One of them
	// (arbitrary plan order) grabs it immediately; among the QUEUED ones,
	// the chain head's staging must run before every leaf's.
	c0 := res.Records["stage_in_c0"]
	for i := 0; i < 3; i++ {
		leaf := res.Records[fmt.Sprintf("stage_in_leaf%d", i)]
		// Either c0 ran first outright, or the first-come winner was a
		// leaf; in that case c0 must still precede the remaining leaves.
		if leaf.ExecStart < c0.ExecStart {
			// Allowed only for the single first-come winner.
			if leaf.ExecStart != 0 {
				t.Fatalf("leaf%d (start %.1f) overtook chain head (start %.1f)",
					i, leaf.ExecStart, c0.ExecStart)
			}
		}
	}
}

// TestNoPrioritiesFIFO: without a priority algorithm, staging runs in
// release order.
func TestNoPrioritiesFIFO(t *testing.T) {
	w := asymmetricWF(t)
	plan, err := w.Plan(workflow.PlanConfig{
		WorkflowID:      "wf1",
		ComputeSiteBase: "file://obelix.example.org/scratch",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range plan.Tasks {
		if task.Type == workflow.TaskStageIn && task.Priority != 0 {
			t.Fatalf("unexpected priority on %s", task.ID)
		}
	}
}
