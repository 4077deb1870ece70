package experiment

import (
	"testing"

	"policyflow/internal/dag"
	"policyflow/internal/policy"
	"policyflow/internal/synth"
	"policyflow/internal/workflow"
)

// TestPrioritiesHelpOnAsymmetricShapes: on scrambled-submission diamond
// and chain workflows with scarce staging slots, the dependent priority
// algorithm must clearly beat unprioritized FIFO staging — the positive
// counterpart to the Montage null result.
func TestPrioritiesHelpOnAsymmetricShapes(t *testing.T) {
	mean := func(shape synth.Shape, a dag.PriorityAlgorithm) float64 {
		ms, err := Trials(shapeScenario(shape, a, 1), 3, AblationStride, synthetic)
		if err != nil {
			t.Fatal(err)
		}
		sum, _, _ := makespan(ms)
		return sum.Mean
	}
	for _, shape := range []synth.Shape{synth.Diamond, synth.Chain} {
		none, dep := mean(shape, ""), mean(shape, dag.Dependent)
		if dep >= none {
			t.Errorf("%s: dependent (%.0f) did not beat none (%.0f)", shape, dep, none)
		}
		// At least 10% improvement on these shapes.
		if (none-dep)/none < 0.10 {
			t.Errorf("%s: improvement only %.1f%%", shape, (none-dep)/none*100)
		}
	}
}

func TestRunWorkflowValidation(t *testing.T) {
	broken := workflow.New("broken")
	broken.MustAddFile(&workflow.File{Name: "orphan", SizeBytes: 1})
	broken.MustAddJob(&workflow.Job{ID: "j1", RuntimeSeconds: 1, Inputs: []string{"orphan"}})
	if _, err := Run(Scenario{Workflow: broken}); err == nil {
		t.Fatal("workflow consuming an unproduced file accepted")
	}
	if _, err := Run(Scenario{UsePolicy: true, Algorithm: policy.Algorithm("bogus"), GridSize: 3}); err == nil {
		t.Fatal("unknown allocation algorithm accepted")
	}
}

func TestRunWorkflowSynthetic(t *testing.T) {
	w, err := synth.Generate(synth.Config{Shape: synth.FanOut, Jobs: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(Scenario{
		Workflow:       w,
		UsePolicy:      true,
		Threshold:      50,
		DefaultStreams: 4,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed || m.MakespanSeconds <= 0 || m.WANMBMoved <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.CleanupsExecuted == 0 {
		t.Fatal("no cleanups")
	}
}
