// Package policyflow is a reproduction of "Integrating Policy with
// Scientific Workflow Management for Data-Intensive Applications"
// (Chervenak, Smith, Chen, Deelman — SC 2012).
//
// It provides a Policy Service that advises a workflow system's transfer
// client on data staging: removing duplicate transfers, letting concurrent
// workflows share staged files safely, grouping transfers by host pair,
// and allocating parallel streams under greedy or balanced policies — plus
// every substrate the paper's evaluation depends on: a forward-chaining
// production rule engine (the Drools substitute), a RESTful web interface
// (JSON and XML), a Pegasus-like workflow planner (stage-in/out insertion,
// transfer clustering, cleanup tasks, structure-based priorities), a
// Montage workflow generator, a DAGMan-like executor, a discrete-event
// testbed simulator, and an experiment harness that regenerates the
// paper's Table IV and Figs. 2 and 5-9.
//
// This file is the public facade: the exported entry points re-export the
// library's internal packages so downstream users need a single import.
//
//	svc, _ := policyflow.NewPolicyService(policyflow.DefaultPolicyConfig())
//	advice, _ := svc.AdviseTransfers([]policyflow.TransferSpec{{
//	    WorkflowID: "wf1",
//	    SourceURL:  "gsiftp://data.example.org/f1",
//	    DestURL:    "file://cluster.example.org/scratch/f1",
//	}})
//
// See examples/ for runnable programs and cmd/ for the server, client,
// and experiment-sweep executables.
package policyflow

import (
	"io"
	"log"

	"policyflow/internal/dag"
	"policyflow/internal/experiment"
	"policyflow/internal/montage"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
	"policyflow/internal/synth"
	"policyflow/internal/tuner"
	"policyflow/internal/workflow"
)

// Policy service core.
type (
	// PolicyConfig configures the policy service.
	PolicyConfig = policy.Config
	// PolicyService is the policy engine plus its persistent Policy Memory.
	PolicyService = policy.Service
	// Algorithm selects the stream-allocation policy.
	Algorithm = policy.Algorithm
	// HostPair is a (source host, destination host) pair.
	HostPair = policy.HostPair
	// TransferSpec is one requested transfer.
	TransferSpec = policy.TransferSpec
	// TransferAdvice is the modified transfer list returned by the service.
	TransferAdvice = policy.TransferAdvice
	// CleanupSpec is one requested file deletion.
	CleanupSpec = policy.CleanupSpec
	// CleanupAdvice is the modified cleanup list returned by the service.
	CleanupAdvice = policy.CleanupAdvice
	// CompletionReport reports finished transfers.
	CompletionReport = policy.CompletionReport
	// CleanupReport reports finished cleanups.
	CleanupReport = policy.CleanupReport
)

// Allocation algorithms.
const (
	AlgoNone     = policy.AlgoNone
	AlgoGreedy   = policy.AlgoGreedy
	AlgoBalanced = policy.AlgoBalanced
)

// DefaultPolicyConfig returns the paper's experimental configuration:
// greedy allocation, 4 default streams, 50-stream threshold per host pair.
func DefaultPolicyConfig() PolicyConfig { return policy.DefaultConfig() }

// NewPolicyService constructs an in-process policy service.
func NewPolicyService(cfg PolicyConfig) (*PolicyService, error) { return policy.New(cfg) }

// REST interface.
type (
	// PolicyServer is the RESTful web interface (an http.Handler).
	PolicyServer = policyhttp.Server
	// PolicyClient talks to a remote policy service over HTTP. Its one
	// call path is Do(ctx, op, payload): the payload PolicyService.Execute
	// takes for a logged op goes over the wire, and the result Execute
	// returns comes back. AdviseTransfers, ReportTransfers and the other
	// typed methods are one-line calls to Do.
	PolicyClient = policyhttp.Client
	// PolicyClientOption customizes a PolicyClient.
	PolicyClientOption = policyhttp.ClientOption
)

// NewPolicyServer wraps a policy service in its REST interface.
func NewPolicyServer(svc *PolicyService, logger *log.Logger) *PolicyServer {
	return policyhttp.NewServer(svc, logger)
}

// NewPolicyClient returns a REST client for the service at baseURL.
func NewPolicyClient(baseURL string, opts ...PolicyClientOption) *PolicyClient {
	return policyhttp.NewClient(baseURL, opts...)
}

// WithXML makes a PolicyClient speak XML instead of JSON.
func WithXML() PolicyClientOption { return policyhttp.WithXML() }

// Workflow modelling and planning.
type (
	// Workflow is an abstract (DAX-like) workflow.
	Workflow = workflow.Workflow
	// WorkflowFile is a logical file of a workflow.
	WorkflowFile = workflow.File
	// WorkflowJob is a compute job of a workflow.
	WorkflowJob = workflow.Job
	// PlanConfig controls planning (staging, clustering, cleanup).
	PlanConfig = workflow.PlanConfig
	// Plan is an executable workflow.
	Plan = workflow.Plan
	// Task is a node of an executable workflow.
	Task = workflow.Task
	// TaskType distinguishes compute, staging and cleanup tasks.
	TaskType = workflow.TaskType
	// PriorityAlgorithm selects a structure-based priority assignment.
	PriorityAlgorithm = dag.PriorityAlgorithm
)

// Executable-workflow task types.
const (
	TaskCompute  = workflow.TaskCompute
	TaskStageIn  = workflow.TaskStageIn
	TaskStageOut = workflow.TaskStageOut
	TaskCleanup  = workflow.TaskCleanup
)

// Structure-based priority algorithms (Section III(c) of the paper).
const (
	PriorityBFS             = dag.BFS
	PriorityDFS             = dag.DFS
	PriorityDirectDependent = dag.DirectDependent
	PriorityDependent       = dag.Dependent
)

// NewWorkflow creates an empty abstract workflow.
func NewWorkflow(name string) *Workflow { return workflow.New(name) }

// Montage generation.
type (
	// MontageConfig parameterizes the Montage workflow generator.
	MontageConfig = montage.Config
	// SynthConfig parameterizes the synthetic workflow generator.
	SynthConfig = synth.Config
	// SynthShape selects a synthetic DAG topology.
	SynthShape = synth.Shape
)

// Synthetic workflow shapes.
const (
	ShapeChain   = synth.Chain
	ShapeFanOut  = synth.FanOut
	ShapeFanIn   = synth.FanIn
	ShapeDiamond = synth.Diamond
	ShapeRandom  = synth.Random
)

// GenerateSynthetic builds a synthetic data-intensive workflow.
func GenerateSynthetic(cfg SynthConfig) (*Workflow, error) { return synth.Generate(cfg) }

// DefaultMontageConfig returns the paper's augmented 1-degree Montage
// configuration with the given additional-file size in MB (0 for the
// unaugmented workflow).
func DefaultMontageConfig(extraMB float64) MontageConfig { return montage.DefaultConfig(extraMB) }

// GenerateMontage builds the Montage workflow.
func GenerateMontage(cfg MontageConfig) (*Workflow, error) { return montage.Generate(cfg) }

// Replication (paper future work: distribution and replication of policy
// logic for reliability).
type (
	// StateDump is a serializable snapshot of Policy Memory.
	StateDump = policy.StateDump
	// ReplicatedPolicyClient follows the leader of an epoch-fenced
	// primary/standby pair through the same Do(ctx, op, payload) call
	// path: each call goes to the replica that last acknowledged one and
	// re-routes on a fence (412) or a failure. It replicates nothing
	// itself — the standby pulls the primary's log, and a promotion
	// (POST /v1/promote) moves leadership.
	ReplicatedPolicyClient = policyhttp.ReplicatedClient
)

// NewReplicatedPolicyClient wraps one client per replica endpoint.
func NewReplicatedPolicyClient(replicas ...*PolicyClient) (*ReplicatedPolicyClient, error) {
	return policyhttp.NewReplicatedClient(replicas...)
}

// Threshold tuning (paper future work: machine-learned transfer settings).
type (
	// ThresholdLearner optimizes the stream threshold from rewards.
	ThresholdLearner = tuner.Learner
	// UCB1 is a bandit over candidate thresholds.
	UCB1 = tuner.UCB1
	// HillClimber is a local-search threshold tuner.
	HillClimber = tuner.HillClimber
)

// NewUCB1 creates a threshold bandit; see tuner.NewUCB1.
func NewUCB1(arms []int, c float64) (*UCB1, error) { return tuner.NewUCB1(arms, c) }

// NewHillClimber creates a local-search tuner; see tuner.NewHillClimber.
func NewHillClimber(start, step, min, max int) (*HillClimber, error) {
	return tuner.NewHillClimber(start, step, min, max)
}

// DefaultTunerArms brackets the paper's explored thresholds.
func DefaultTunerArms() []int { return tuner.DefaultArms() }

// ReadDAX parses a DAX (Pegasus workflow description) document.
func ReadDAX(r io.Reader) (*Workflow, error) { return workflow.ReadDAX(r) }

// Experiments.
type (
	// Scenario is one simulated experimental configuration.
	Scenario = experiment.Scenario
	// Metrics is the outcome of one simulated run.
	Metrics = experiment.Metrics
	// ExperimentOptions tunes figure regeneration.
	ExperimentOptions = experiment.Options
)

// RunMontageScenario executes one scenario on the simulated testbed.
func RunMontageScenario(s Scenario) (Metrics, error) { return experiment.Run(s) }

// TunerResult summarizes a threshold-learning experiment.
type TunerResult = experiment.TunerResult

// TuneThreshold runs episodes of the augmented Montage workflow with the
// learner choosing each episode's greedy threshold; see
// experiment.TuneThreshold.
func TuneThreshold(fileMB float64, episodes int, learner ThresholdLearner, o ExperimentOptions) (TunerResult, error) {
	return experiment.TuneThreshold(fileMB, episodes, learner, o)
}
