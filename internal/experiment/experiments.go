package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"policyflow/internal/dag"
	"policyflow/internal/policy"
	"policyflow/internal/stats"
	"policyflow/internal/synth"
	"policyflow/internal/transfer"
	"policyflow/internal/tuner"
	"policyflow/internal/workflow"
)

// Experiment is one registered experiment of the paper's evaluation: the
// name cmd/sweep selects it by and the tables it declares.
type Experiment struct {
	Name string
	Run  func(o Options) ([]Table, error)
}

// registry lists the experiments in print order.
var registry = []Experiment{
	{"table4", tables(tableIV)},
	{"fig2", tables(fig2)},
	{"fig5", tables(fig5())},
	{"fig6", tables(figThreshold("6", 10))},
	{"fig7", tables(figThreshold("7", 100))},
	{"fig8", tables(figThreshold("8", 500))},
	{"fig9", tables(figThreshold("9", 1000))},
	{"tuner", tables(tunerTable)},
	{"scalability", tables(func(o Options) (Table, error) { return scalability(o, 1, 2, 4, 8) })},
	{"ablations", tables(balancedVsGreedy, priorities, shapePriorities, sharing, overhead)},
}

// Lookup returns the registered experiment with the given name, or every
// experiment for "all". An unknown name is an error listing the names.
func Lookup(name string) ([]Experiment, error) {
	if name == "all" {
		return slices.Clone(registry), nil
	}
	var names []string
	for _, e := range registry {
		if e.Name == name {
			return []Experiment{e}, nil
		}
		names = append(names, e.Name)
	}
	return nil, fmt.Errorf("experiment: unknown experiment %q (registered: %s, all)", name, strings.Join(names, ", "))
}

func tables(decls ...func(Options) (Table, error)) func(Options) ([]Table, error) {
	return func(o Options) ([]Table, error) {
		out := make([]Table, len(decls))
		for i, d := range decls {
			var err error
			if out[i], err = d(o.norm()); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// The default-streams sweep of Table IV and Figs. 5-9, and the priority
// algorithms of Section III(c) ("" is unprioritized staging).
var (
	defaultStreamsSweep = []int{4, 6, 8, 10, 12}
	priorityAlgorithms  = append([]dag.PriorityAlgorithm{""}, dag.Algorithms()...)
)

// labelled renders a label-list row from the scenario's name and its
// makespan summary.
func labelled(format string) func(Scenario, []Metrics) []string {
	return func(s Scenario, ms []Metrics) []string {
		sum, _, _ := makespan(ms)
		return row(format, s.Name, sum)
	}
}

// greedy is the paper's policy configuration at one sweep point.
func greedy(name string, extraMB float64, threshold, streams int) Scenario {
	return Scenario{Name: name, ExtraMB: extraMB, UsePolicy: true, Algorithm: policy.AlgoGreedy,
		Threshold: threshold, DefaultStreams: streams}
}

// row splits a tab-separated formatted line into table cells.
func row(format string, args ...any) []string {
	return strings.Split(fmt.Sprintf(format, args...), "\t")
}

// tableIV derives Table IV analytically, as the paper does: the peak
// streams of 20 concurrent staging jobs per (threshold, default streams).
func tableIV(Options) (Table, error) {
	t := Table{Title: "Table IV — maximum streams for simultaneous transfers (20 staging jobs)",
		Header: row("threshold\t4\t6\t8\t10\t12")}
	for _, label := range []string{"50", "100", "200", "no-policy"} {
		th, _ := strconv.Atoi(label) // 0: no policy
		cells := []string{label}
		for _, d := range defaultStreamsSweep {
			n := 20 * d // no policy: every job uses the default
			if th > 0 {
				n = policy.GreedyMaxStreams(th, d, 20)
			}
			cells = append(cells, strconv.Itoa(n))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// fig2 compares clustered and unclustered transfer execution: grouping
// transfers eliminates per-job initialization overheads.
func fig2(o Options) (Table, error) {
	clustered := greedy("clustered:", 1, 50, 4)
	clustered.ClusterFactor = 4
	return sweep(o, Table{Title: "Fig. 2 — transfer clustering (1 MB files, cluster factor 4)"}, AblationStride,
		[]Scenario{greedy("unclustered:", 1, 50, 4), clustered},
		func(s Scenario, ms []Metrics) []string {
			sum, _, _ := makespan(ms)
			return row("%s\tmakespan %s, %d sessions", s.Name, sum, ms[len(ms)-1].Sessions)
		})
}

// figure declares the table of one of Figs. 5-9: one row per plotted point.
func figure(title string, rows []Scenario) func(Options) (Table, error) {
	t := Table{Title: title, Header: row("series\tstreams/transfer\tmean(s)\tstddev(s)\tmax WAN streams\tDNF")}
	return func(o Options) (Table, error) {
		return sweep(o, t, FigureStride, rows, func(s Scenario, ms []Metrics) []string {
			sum, peak, dnf := makespan(ms)
			return row("%s\t%d\t%.1f\t%.1f\t%d\t%d", s.Name, s.DefaultStreams, sum.Mean, sum.StdDev, peak, dnf)
		})
	}
}

// fig5 declares Fig. 5: one series per additional-file size at threshold 50.
func fig5() func(Options) (Table, error) {
	var rows []Scenario
	for _, size := range []float64{0, 10, 100, 500, 1000} {
		for _, d := range defaultStreamsSweep {
			rows = append(rows, greedy(fmt.Sprintf("%gMB", size), size, 50, d))
		}
	}
	return figure("Fig. 5 — workflow execution time vs default streams (greedy threshold 50, by file size)", rows)
}

// figThreshold declares one of Figs. 6-9: greedy thresholds 50/100/200
// across the streams sweep, plus the paper's single no-policy point.
func figThreshold(fig string, fileMB float64) func(Options) (Table, error) {
	var rows []Scenario
	for _, th := range []int{50, 100, 200} {
		for _, d := range defaultStreamsSweep {
			rows = append(rows, greedy(fmt.Sprintf("greedy-%d", th), fileMB, th, d))
		}
	}
	rows = append(rows, Scenario{Name: "no-policy", ExtraMB: fileMB, DefaultStreams: 4})
	return figure(fmt.Sprintf("Fig. %s — workflow execution time, %g MB additional files (greedy thresholds vs no policy)", fig, fileMB), rows)
}

// TunerEpisode records one episode of threshold learning.
type TunerEpisode struct {
	Threshold int
	// RewardMBps is the effective WAN goodput of the episode's workflow
	// run (WAN megabytes over makespan).
	RewardMBps float64
	Makespan   float64
}

// TunerResult summarizes a threshold-learning experiment.
type TunerResult struct {
	Episodes []TunerEpisode
	// Best is the learner's final recommendation.
	Best int
	// ConvergedMakespan is the mean makespan over the last quarter of
	// episodes (converged behaviour).
	ConvergedMakespan float64
}

// TuneThreshold runs the paper's proposed machine-learning extension: a
// learner picks the greedy threshold of each workflow run (episode) from
// the WAN goodput it observes, and converges toward the testbed's knee.
func TuneThreshold(fileMB float64, episodes int, learner tuner.Learner, o Options) (TunerResult, error) {
	res, _, err := tune(fileMB, episodes, learner, o.norm())
	return res, err
}

func tune(fileMB float64, episodes int, learner tuner.Learner, o Options) (TunerResult, Table, error) {
	var res TunerResult
	t := Table{Header: row("episode\tthreshold\treward (MB/s)\tmakespan (s)")}
	s := greedy("tuner", fileMB, 0, 8)
	s.GridSize, s.Seed = o.GridSize, o.Seed
	var err error
	t.Runs, err = Trials(s, episodes, AblationStride, func(s Scenario) (Metrics, error) {
		s.Threshold = learner.Next()
		m, err := Run(s)
		if err != nil {
			return m, err
		}
		reward := 0.0
		if m.Completed && m.MakespanSeconds > 0 {
			reward = m.WANMBMoved / m.MakespanSeconds
		}
		learner.Record(s.Threshold, reward)
		res.Episodes = append(res.Episodes, TunerEpisode{s.Threshold, reward, m.MakespanSeconds})
		t.Rows = append(t.Rows, row("%d\t%d\t%.3f\t%.1f", len(t.Rows)+1, s.Threshold, reward, m.MakespanSeconds))
		return m, nil
	})
	if err != nil {
		return res, t, err
	}
	res.Best = learner.Best()
	tail := res.Episodes[len(res.Episodes)-max(1, len(res.Episodes)/4):]
	for _, e := range tail {
		res.ConvergedMakespan += e.Makespan
	}
	res.ConvergedMakespan /= float64(len(tail))
	t.Rows = append(t.Rows, row("recommended threshold: %d (converged makespan %.1f s)", res.Best, res.ConvergedMakespan))
	return res, t, nil
}

func tunerTable(o Options) (Table, error) {
	learner, err := tuner.NewUCB1(tuner.DefaultArms(), 0.3)
	if err != nil {
		return Table{}, err
	}
	_, t, err := tune(100, 40, learner, o)
	t.Title = "Future work — machine-learned threshold (UCB1 bandit, 100 MB files)"
	return t, err
}

// together runs n copies of the workflow at once, without stage-out.
func together(s Scenario, n int, shared bool, wrap func(*policy.Service) transfer.Advisor) (Metrics, error) {
	plans := make([]*workflow.Plan, n)
	var err error
	for i := range plans {
		if plans[i], err = s.plan(workflow.PlanConfig{WorkflowID: fmt.Sprintf("wf%d", i+1), SharedScratch: shared}); err != nil {
			return Metrics{}, err
		}
	}
	return testbed(s, wrap, plans...)
}

// timingAdvisor records the wall-clock cost of each advice call: the rule
// engine's evaluation time, which bounds a central service's throughput.
type timingAdvisor struct {
	transfer.Advisor
	mu           sync.Mutex
	adviseMicros []float64
}

func (a *timingAdvisor) AdviseTransfers(specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	start := time.Now()
	adv, err := a.Advisor.AdviseTransfers(specs)
	a.mu.Lock()
	a.adviseMicros = append(a.adviseMicros, float64(time.Since(start).Microseconds()))
	a.mu.Unlock()
	return adv, err
}

// scalability runs K concurrent workflows against one policy service for
// each K in counts (paper future work). Advice cost is wall-clock time, so
// this table is not deterministic.
func scalability(o Options, counts ...int) (Table, error) {
	t := Table{Title: "Future work — centralized service scalability (concurrent workflows)",
		Header: row("workflows\tmakespan (s)\tadvice mean (µs)\tadvice max (µs)\tpolicy calls\trule firings\tfinal facts")}
	for _, k := range counts {
		if k < 1 {
			return t, fmt.Errorf("experiment: invalid workflow count %d", k)
		}
		ta := &timingAdvisor{}
		s := Scenario{ExtraMB: 10, GridSize: cmp.Or(o.GridSize, 4), UsePolicy: true, Threshold: 50, DefaultStreams: 4, Seed: o.Seed + int64(k)}
		m, err := together(s, k, false, func(p *policy.Service) transfer.Advisor { ta.Advisor = p; return ta })
		if err != nil {
			return t, err
		}
		advise := stats.Summarize(ta.adviseMicros)
		t.Rows = append(t.Rows, row("%d\t%.1f\t%.0f\t%.0f\t%d\t%d\t%d", k, m.MakespanSeconds,
			advise.Mean, advise.Max, m.PolicyCalls, m.RuleFirings, ta.Advisor.(*policy.Service).FactCount()))
		t.Runs = append(t.Runs, m)
	}
	return t, nil
}

// balancedVsGreedy compares the allocators under transfer clustering, the
// case balanced allocation is designed for (Section III(b)).
func balancedVsGreedy(o Options) (Table, error) {
	g := greedy("greedy:", 100, 50, 8)
	g.ClusterFactor = 4
	b := g
	b.Name, b.Algorithm = "balanced:", policy.AlgoBalanced
	return sweep(o, Table{Title: "Ablation — balanced vs greedy allocation (100 MB files, cluster factor 4)"},
		AblationStride, []Scenario{g, b}, labelled("%s\t%s"))
}

// priorities compares the structure-based priority algorithms on Montage.
func priorities(o Options) (Table, error) {
	var rows []Scenario
	for _, a := range priorityAlgorithms {
		s := greedy(cmp.Or(string(a), "none"), 100, 50, 8)
		s.PriorityAlgorithm = a
		rows = append(rows, s)
	}
	return sweep(o, Table{Title: "Ablation — structure-based priorities (100 MB files)"}, AblationStride, rows,
		labelled("%-18s\t%s"))
}

// shapeScenario runs a synthetic shape on scarce staging slots, so that
// staging order matters.
func shapeScenario(shape synth.Shape, a dag.PriorityAlgorithm, seed int64) Scenario {
	return Scenario{Name: string(shape), PriorityAlgorithm: a, NoCleanup: true,
		UsePolicy: true, Threshold: 50, DefaultStreams: 4, Slots: 2, Seed: seed}
}

// synthetic is a trial on a fresh workflow of the shape named by the
// scenario, generated from the trial's seed in scrambled submission order.
func synthetic(s Scenario) (Metrics, error) {
	w, err := synth.Generate(synth.Config{Shape: synth.Shape(s.Name), Jobs: 24, InputMB: 50, RuntimeSeconds: 30, Seed: s.Seed, Scramble: true})
	if err != nil {
		return Metrics{}, err
	}
	s.Workflow = w
	return Run(s)
}

// shapePriorities measures the priority algorithms across workflow shapes:
// on Montage they are a null result, on asymmetric shapes they are not.
func shapePriorities(o Options) (Table, error) {
	t := Table{Title: "Ablation — priorities across workflow shapes (scrambled submission, 2 staging slots)",
		Header: row("shape\tnone\tbfs\tdfs\tdirect-dependent\tdependent")}
	for _, shape := range synth.Shapes() {
		cells := []string{string(shape)}
		for _, a := range priorityAlgorithms {
			ms, err := Trials(shapeScenario(shape, a, o.Seed), o.Trials, AblationStride, synthetic)
			if err != nil {
				return t, err
			}
			sum, _, _ := makespan(ms)
			cells = append(cells, fmt.Sprintf("%.0f±%.0f", sum.Mean, sum.StdDev))
			t.Runs = append(t.Runs, ms...)
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// sharing runs two workflows sharing a scratch directory, with and without
// the policy service, which suppresses half the staging as duplicate.
func sharing(o Options) (Table, error) {
	t := Table{Title: "Ablation — two concurrent workflows sharing staged files (100 MB)"}
	for _, usePolicy := range []bool{true, false} {
		s := Scenario{ExtraMB: 100, GridSize: o.GridSize, UsePolicy: usePolicy, Threshold: 50, DefaultStreams: 4, Seed: o.Seed}
		m, err := together(s, 2, true, nil)
		if err != nil {
			return t, err
		}
		r := row("without policy:\tmakespan %.1f s, %d executed", m.MakespanSeconds, m.TransfersExecuted)
		if usePolicy {
			r = row("with policy:\tmakespan %.1f s, %d executed, %d suppressed, %d cleanups blocked",
				m.MakespanSeconds, m.TransfersExecuted, m.TransfersSuppressed, m.CleanupsSuppressed)
		}
		t.Rows = append(t.Rows, r)
		t.Runs = append(t.Runs, m)
	}
	return t, nil
}

// overhead reruns 100 MB greedy-50 with increasing policy call latency (the
// paper notes the service calls' overhead but does not isolate it).
func overhead(o Options) (Table, error) {
	var rows []Scenario
	for _, lat := range []float64{-1, 0.15, 1, 5} { // -1 selects zero latency
		s := greedy("", 100, 50, 8)
		s.PolicyCallSeconds = lat
		rows = append(rows, s)
	}
	t := Table{Title: "Ablation — policy service call overhead (100 MB, greedy 50)",
		Header: row("policy call latency (s)\tmean makespan (s)\tstddev")}
	return sweep(o, t, AblationStride, rows, func(s Scenario, ms []Metrics) []string {
		sum, _, _ := makespan(ms)
		return row("%.2f\t%.1f\t%.1f", max(s.PolicyCallSeconds, 0), sum.Mean, sum.StdDev)
	})
}
