// Benchmarks that regenerate every table and figure of the paper's
// evaluation on the simulated testbed, plus microbenchmarks of the
// substrates. Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkExperiments runs the same experiment registry as `cmd/sweep`,
// on the full-scale workflow (89 staging jobs) with one trial per data
// point per iteration; `cmd/sweep` prints the tables with the paper's
// trial count.
package policyflow_test

import (
	"fmt"
	"testing"

	"policyflow/internal/dag"
	"policyflow/internal/experiment"
	"policyflow/internal/montage"
	"policyflow/internal/policy"
	"policyflow/internal/rules"
	"policyflow/internal/simnet"
	"policyflow/internal/workflow"
)

// BenchmarkExperiments regenerates every registered table and figure of
// the paper's evaluation, one sub-benchmark per experiment, with one trial
// per data point per iteration.
func BenchmarkExperiments(b *testing.B) {
	exps, err := experiment.Lookup("all")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range exps {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiment.Options{Trials: 1, Seed: int64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolicyAdvise measures the policy service's advice throughput:
// one 20-transfer batch per iteration against a warm session.
func BenchmarkPolicyAdvise(b *testing.B) {
	cfg := policy.DefaultConfig()
	svc, err := policy.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs := make([]policy.TransferSpec, 20)
		for j := range specs {
			specs[j] = policy.TransferSpec{
				RequestID:  fmt.Sprintf("r-%d-%d", i, j),
				WorkflowID: "bench",
				SourceURL:  fmt.Sprintf("gsiftp://src.example.org/f-%d-%d", i, j),
				DestURL:    fmt.Sprintf("file://dst.example.org/f-%d-%d", i, j),
			}
		}
		adv, err := svc.AdviseTransfers(specs)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(adv.Transfers))
		for j, tr := range adv.Transfers {
			ids[j] = tr.ID
		}
		if _, err := svc.ReportTransfers(policy.CompletionReport{TransferIDs: ids}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuleEngine measures raw forward-chaining throughput: 100 facts
// through a 3-rule join program per iteration.
func BenchmarkRuleEngine(b *testing.B) {
	type item struct{ n, class int }
	type marker struct{ class int }
	for i := 0; i < b.N; i++ {
		s := rules.NewSession()
		s.MustAddRules(
			&rules.Rule{
				Name:     "mark-classes",
				Salience: 10,
				When: []rules.Pattern{
					rules.Match[*item]("it", nil),
					rules.Not(func(bd rules.Bindings, m *marker) bool {
						return m.class == bd.Get("it").(*item).class
					}),
				},
				Then: func(ctx *rules.Context) {
					ctx.Insert(&marker{class: ctx.Get("it").(*item).class})
				},
			},
			&rules.Rule{
				Name: "count-pairs",
				When: []rules.Pattern{
					rules.Match[*marker]("m", nil),
					rules.Match("it", func(bd rules.Bindings, v *item) bool {
						return v.class == bd.Get("m").(*marker).class
					}),
				},
				Then: func(ctx *rules.Context) {},
			},
		)
		for j := 0; j < 100; j++ {
			s.Insert(&item{n: j, class: j % 5})
		}
		if _, err := s.FireAll(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetPipe measures the fluid-flow simulator: 200 overlapping
// transfers through one pipe per iteration.
func BenchmarkSimnetPipe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := simnet.NewEnv(int64(i + 1))
		pipe := env.NewPipe(simnet.WANConfig())
		for j := 0; j < 200; j++ {
			j := j
			env.Go("t", func(p *simnet.Proc) {
				p.Sleep(float64(j) * 0.5)
				for pipe.Transfer(p, 10, 4) != nil {
					// retry until success (failures under overload)
				}
			})
		}
		env.Run(0)
	}
}

// BenchmarkMontagePlanning measures workflow generation + planning of the
// full-scale augmented Montage workflow.
func BenchmarkMontagePlanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := montage.Generate(montage.DefaultConfig(100))
		if err != nil {
			b.Fatal(err)
		}
		plan, err := w.Plan(workflow.PlanConfig{
			WorkflowID:      "bench",
			ComputeSiteBase: "file://obelix.isi.example.org/scratch",
			Cleanup:         true,
		})
		if err != nil {
			b.Fatal(err)
		}
		stageIns := 0
		for _, t := range plan.Tasks {
			if t.Type == workflow.TaskStageIn {
				stageIns++
			}
		}
		if stageIns != 89 {
			b.Fatal("wrong staging job count")
		}
	}
}

// BenchmarkDAGPriorities measures priority assignment on a large DAG.
func BenchmarkDAGPriorities(b *testing.B) {
	w, err := montage.Generate(montage.DefaultConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	g, err := w.JobGraph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, algo := range dag.Algorithms() {
			if _, err := dag.AssignPriorities(g, algo); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFullMontageRun measures one end-to-end simulated run of the
// paper's headline configuration (100 MB, greedy 50, 8 streams).
func BenchmarkFullMontageRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiment.Run(experiment.Scenario{
			ExtraMB: 100, UsePolicy: true, Algorithm: policy.AlgoGreedy,
			Threshold: 50, DefaultStreams: 8, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.MakespanSeconds, "sim-makespan-s")
	}
}
