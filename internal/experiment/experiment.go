// Package experiment reproduces the paper's evaluation (Section V): the
// augmented Montage workflow is executed on the simulated testbed under
// each policy configuration, and the harness regenerates Table IV and the
// data series of Figs. 2 and 5-9, plus the ablations listed in DESIGN.md.
//
// There is one testbed (Run, and testbed for several workflows at once),
// one trial loop (Trials), one table type and one printer (Table, Write);
// each experiment is a registered declaration over them (Lookup).
package experiment

import (
	"cmp"
	"fmt"
	"strings"

	"policyflow/internal/dag"
	"policyflow/internal/executor"
	"policyflow/internal/montage"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/simnet"
	"policyflow/internal/transfer"
	"policyflow/internal/workflow"
)

// Scenario is one complete experimental configuration: the workload, how
// it is planned, the policy it runs under and the testbed's resources.
type Scenario struct {
	// Name labels the scenario in tables.
	Name string

	// Workflow is the abstract workflow to run; nil selects the augmented
	// Montage workflow: ExtraMB is the additional staged file per staging
	// job (the paper sweeps 0-1000) and GridSize scales it (0 is the
	// paper's 9x9 grid, 89 staging jobs).
	Workflow *workflow.Workflow
	ExtraMB  float64
	GridSize int

	// ClusterFactor > 1 enables transfer clustering at planning time.
	ClusterFactor int
	// NoCleanup leaves out the cleanup tasks that delete staged files.
	NoCleanup bool
	// PriorityAlgorithm, when set, orders staging by workflow structure.
	PriorityAlgorithm dag.PriorityAlgorithm

	// UsePolicy toggles consultation of the policy service; false is the
	// paper's "default Pegasus, no policy" baseline. Algorithm (default
	// greedy) allocates streams under Threshold per host pair (0 is 50);
	// DefaultStreams is the per-transfer request (0 is 4).
	UsePolicy      bool
	Algorithm      policy.Algorithm
	Threshold      int
	DefaultStreams int
	// PolicyCallSeconds overrides the simulated policy-service call
	// latency; negative means 0, zero selects the default (0.15 s).
	PolicyCallSeconds float64

	// Slots is the number of staging slots; 0 selects the paper's 20.
	Slots int
	// Seed drives all simulation randomness.
	Seed int64
	// Tracer, when set, collects the run's per-transfer lifecycle events
	// (its provenance record).
	Tracer obs.Tracer
}

// Metrics is the outcome of one run.
type Metrics struct {
	// Completed is false when a workflow failed permanently (a task
	// exhausted its retry budget) — possible in deep-overload regimes.
	Completed bool
	// MakespanSeconds is the workflow execution time, the paper's y-axis
	// (until permanent failure for incomplete runs; until the last
	// workflow finishes when several run at once).
	MakespanSeconds float64
	// MaxWANStreams is the peak concurrent stream count on the WAN pair
	// (Table IV's quantity); WANMBMoved the payload it carried, retried
	// work included.
	MaxWANStreams int
	WANMBMoved    float64
	// TransferFailures counts failed transfer attempts, Retries task reruns.
	TransferFailures int64
	Retries          int
	// Transfer tool counters. CleanupsSuppressed counts deletions the
	// policy blocked because another workflow still used the file.
	// RuleFirings counts the policy rule activations fired.
	TransfersExecuted   int64
	TransfersSuppressed int64
	PolicyCalls         int64
	Sessions            int64
	CleanupsExecuted    int64
	CleanupsSuppressed  int64
	RuleFirings         int64
	// Exec is the first workflow's executor result (task records, timeline).
	Exec *executor.Result
}

// PipeConfigFor returns the bandwidth model for a host pair: the WAN model
// when the source is the FutureGrid VM, the LAN model otherwise.
func PipeConfigFor(pair policy.HostPair) simnet.PipeConfig {
	if strings.Contains(pair.Src, "futuregrid") || strings.Contains(pair.Dst, "futuregrid") {
		return simnet.WANConfig()
	}
	return simnet.LANConfig()
}

// Run plans the scenario's workflow with stage-out and runs it on the testbed.
func Run(s Scenario) (Metrics, error) {
	p, err := s.plan(workflow.PlanConfig{WorkflowID: fmt.Sprintf("run-%d", s.Seed), OutputSiteBase: "file://obelix.isi.example.org/results"})
	if err != nil {
		return Metrics{}, err
	}
	return testbed(s, nil, p)
}

// plan completes cfg from the scenario's planning options and plans the
// scenario's workflow with it.
func (s Scenario) plan(cfg workflow.PlanConfig) (*workflow.Plan, error) {
	w := s.Workflow
	if w == nil {
		mcfg := montage.DefaultConfig(s.ExtraMB)
		mcfg.GridSize = cmp.Or(s.GridSize, mcfg.GridSize)
		var err error
		if w, err = montage.Generate(mcfg); err != nil {
			return nil, err
		}
	}
	cfg.ComputeSiteBase = "file://obelix.isi.example.org/scratch"
	cfg.ClusterFactor = s.ClusterFactor
	cfg.Cleanup = !s.NoCleanup
	cfg.PriorityAlgorithm = s.PriorityAlgorithm
	return w.Plan(cfg)
}

// testbed executes the plans at once on one simulated network, policy
// service (wrap may interpose on it), transfer tool, cores and slots.
func testbed(s Scenario, wrap func(*policy.Service) transfer.Advisor, plans ...*workflow.Plan) (Metrics, error) {
	env := simnet.NewEnv(s.Seed)
	fab := transfer.NewSimFabric(env, PipeConfigFor)

	var advisor transfer.Advisor
	var svc *policy.Service
	if s.UsePolicy {
		pcfg := policy.DefaultConfig()
		pcfg.Algorithm = cmp.Or(s.Algorithm, pcfg.Algorithm)
		pcfg.DefaultThreshold = cmp.Or(s.Threshold, pcfg.DefaultThreshold)
		pcfg.DefaultStreams = cmp.Or(s.DefaultStreams, pcfg.DefaultStreams)
		pcfg.ClusterFactor = max(s.ClusterFactor, pcfg.ClusterFactor)
		var err error
		if svc, err = policy.New(pcfg); err != nil {
			return Metrics{}, err
		}
		svc.Instrument(nil, s.Tracer)
		advisor = svc
		if wrap != nil {
			advisor = wrap(svc)
		}
	}

	ptt, err := transfer.New(transfer.Config{
		Advisor: advisor, Fabric: fab, DefaultStreams: s.DefaultStreams, Tracer: s.Tracer,
		SessionSetupSeconds: 2, TransferSetupSeconds: 0.5, PolicyCallSeconds: max(cmp.Or(s.PolicyCallSeconds, 0.15), 0),
	})
	if err != nil {
		return Metrics{}, err
	}

	ecfg := executor.DefaultConfig()
	ecfg.StagingSlots = cmp.Or(s.Slots, ecfg.StagingSlots)
	cores := env.NewResource("cores", ecfg.ComputeCores)
	slots := env.NewResource("slots", ecfg.StagingSlots)
	handles := make([]*executor.Handle, len(plans))
	for i, p := range plans {
		if handles[i], err = executor.Start(env, p, ptt, cores, slots, ecfg); err != nil {
			return Metrics{}, err
		}
	}
	env.Run(0)

	m := Metrics{Completed: true}
	for _, h := range handles {
		res, err := h.Result()
		if err != nil && len(res.FailedTasks) == 0 {
			return Metrics{}, err // a structural failure, not exhausted retries
		}
		m.Completed = m.Completed && err == nil
		m.Exec = cmp.Or(m.Exec, res)
		m.MakespanSeconds = max(m.MakespanSeconds, res.Makespan)
		m.Retries += res.Retries
	}
	st := ptt.Stats()
	m.TransfersExecuted, m.TransfersSuppressed, m.TransferFailures = st.TransfersExecuted, st.TransfersSuppressed, st.TransfersFailed
	m.PolicyCalls, m.Sessions = st.PolicyCalls, st.Sessions
	m.CleanupsExecuted, m.CleanupsSuppressed = st.CleanupsExecuted, st.CleanupsSuppressed
	if svc != nil {
		m.RuleFirings = svc.RuleFirings()
	}
	for pair, pipe := range fab.Pipes() {
		if strings.Contains(pair.Src, "futuregrid") {
			mb, _, _ := pipe.Stats()
			m.WANMBMoved += mb
			m.MaxWANStreams = max(m.MaxWANStreams, pipe.MaxStreamsSeen())
		}
	}
	return m, nil
}
