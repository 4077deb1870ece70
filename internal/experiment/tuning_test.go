package experiment

import (
	"testing"

	"policyflow/internal/tuner"
)

// TestTunerDiscoversKnee: the UCB1 bandit, choosing thresholds for
// repeated full-scale runs, must converge below the testbed's overload
// knee (~65 streams) — learning the paper's manual finding that 50
// outperforms 100 and 200.
func TestTunerDiscoversKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale tuning run")
	}
	learner, err := tuner.NewUCB1(tuner.DefaultArms(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneThreshold(100, 30, learner, Options{Trials: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best > 65 {
		t.Fatalf("tuner recommended %d, want <= 65 (below the knee)", res.Best)
	}
	if res.Best < 25 {
		t.Fatalf("tuner recommended %d, implausibly small", res.Best)
	}
	// The converged makespan must beat a permanently over-allocated run.
	over, err := Run(Scenario{
		ExtraMB: 100, UsePolicy: true, Threshold: 200, DefaultStreams: 8, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedMakespan >= over.MakespanSeconds {
		t.Fatalf("converged makespan %.0f not better than threshold-200 run %.0f",
			res.ConvergedMakespan, over.MakespanSeconds)
	}
}

func TestTuneThresholdHillClimber(t *testing.T) {
	climber, err := tuner.NewHillClimber(200, 40, 20, 250)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneThreshold(100, 12, climber, Options{Trials: 1, GridSize: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Episodes) != 12 {
		t.Fatalf("episodes = %d", len(res.Episodes))
	}
	if res.Best <= 0 {
		t.Fatalf("best = %d", res.Best)
	}
}
