package workflow

import (
	"fmt"
	"sort"
	"strings"

	"policyflow/internal/dag"
)

// TaskType distinguishes the tasks of an executable workflow.
type TaskType int

const (
	// TaskCompute runs a workflow job on a compute resource.
	TaskCompute TaskType = iota
	// TaskStageIn transfers external input files to the compute site.
	TaskStageIn
	// TaskStageOut transfers final outputs to permanent storage.
	TaskStageOut
	// TaskCleanup deletes files no longer needed at the compute site.
	TaskCleanup
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	switch t {
	case TaskCompute:
		return "compute"
	case TaskStageIn:
		return "stage-in"
	case TaskStageOut:
		return "stage-out"
	case TaskCleanup:
		return "cleanup"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// TransferOp is one file movement inside a staging task.
type TransferOp struct {
	FileName  string
	SourceURL string
	DestURL   string
	SizeBytes int64
}

// Task is a node of the executable workflow.
type Task struct {
	ID   string
	Type TaskType
	// Job is set for compute tasks.
	Job *Job
	// Transfers is set for staging tasks.
	Transfers []TransferOp
	// Deletions lists site URLs removed by a cleanup task.
	Deletions []string
	// ClusterID labels the transfer cluster the task belongs to (empty
	// when clustering is disabled).
	ClusterID string
	// Priority is the structure-based priority (0 when disabled).
	Priority int
}

// Plan is an executable workflow: tasks plus their dependency DAG.
type Plan struct {
	WorkflowID string
	Tasks      []*Task
	Graph      *dag.Graph
	byID       map[string]*Task
}

// Task returns a task by ID.
func (p *Plan) Task(id string) (*Task, bool) {
	t, ok := p.byID[id]
	return t, ok
}

// PlanConfig controls planning.
type PlanConfig struct {
	// WorkflowID identifies the run (used in site paths and policy calls).
	WorkflowID string
	// ComputeSiteBase is the URL prefix of the compute site's shared
	// scratch space, e.g. "file://obelix.isi.example.org/scratch".
	ComputeSiteBase string
	// OutputSiteBase is the URL prefix of permanent storage for final
	// outputs; empty disables stage-out tasks.
	OutputSiteBase string
	// ClusterFactor is the transfer clustering factor: the maximum number
	// of clustered staging tasks per workflow level. 0 or 1 disables
	// clustering ("one stage-in job per compute job", the paper's
	// experimental configuration, corresponds to 0).
	ClusterFactor int
	// Cleanup adds cleanup tasks that delete files once no remaining
	// task needs them.
	Cleanup bool
	// PriorityAlgorithm, when set, assigns structure-based priorities to
	// compute jobs and propagates them to their staging tasks.
	PriorityAlgorithm dag.PriorityAlgorithm
	// SharedScratch stages files into a scratch directory shared by all
	// workflows instead of a per-run directory, letting concurrent
	// workflows share staged files through the policy service (the
	// paper's multi-workflow file-sharing scenario).
	SharedScratch bool
}

func (c *PlanConfig) normalize() error {
	if c.WorkflowID == "" {
		return fmt.Errorf("workflow: PlanConfig.WorkflowID is required")
	}
	if c.ComputeSiteBase == "" {
		return fmt.Errorf("workflow: PlanConfig.ComputeSiteBase is required")
	}
	c.ComputeSiteBase = strings.TrimRight(c.ComputeSiteBase, "/")
	c.OutputSiteBase = strings.TrimRight(c.OutputSiteBase, "/")
	if c.ClusterFactor < 0 {
		return fmt.Errorf("workflow: negative ClusterFactor")
	}
	return nil
}

// siteURL returns the compute-site URL of a logical file for this run.
func (c *PlanConfig) siteURL(file string) string {
	if c.SharedScratch {
		return c.ComputeSiteBase + "/shared/" + file
	}
	return c.ComputeSiteBase + "/" + c.WorkflowID + "/" + file
}

// Plan converts the abstract workflow into an executable workflow,
// mirroring Pegasus' planning phase: it "adds to the workflow data staging
// tasks that move input data sets to resources where compute jobs will
// execute, ... and that transfer results to permanent storage", optionally
// clusters staging tasks, inserts cleanup tasks, and assigns priorities.
func (w *Workflow) Plan(cfg PlanConfig) (*Plan, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	jg, err := w.JobGraph()
	if err != nil {
		return nil, err
	}

	p := &Plan{WorkflowID: cfg.WorkflowID, Graph: dag.New(), byID: make(map[string]*Task)}
	add := func(t *Task) *Task {
		p.Tasks = append(p.Tasks, t)
		p.byID[t.ID] = t
		p.Graph.MustAddNode(t.ID)
		return t
	}

	// Compute tasks mirror the abstract jobs.
	for _, j := range w.jobs {
		add(&Task{ID: j.ID, Type: TaskCompute, Job: j})
	}
	for _, j := range w.jobs {
		for _, in := range j.Inputs {
			if prod := w.producer[in]; prod != "" {
				p.Graph.MustAddEdge(prod, j.ID)
			}
		}
	}

	// Stage-in tasks: one per compute job that consumes external inputs
	// (the paper's "one stage-in job per compute job" when clustering is
	// off); clustering merges them level-by-level below.
	levels, err := jg.Levels()
	if err != nil {
		return nil, err
	}
	var stageIns []*stageIn
	for _, j := range w.jobs {
		var ops []TransferOp
		for _, in := range j.Inputs {
			f := w.files[in]
			if f.IsExternalInput() {
				ops = append(ops, TransferOp{
					FileName:  f.Name,
					SourceURL: f.SourceURL,
					DestURL:   cfg.siteURL(f.Name),
					SizeBytes: f.SizeBytes,
				})
			}
		}
		if len(ops) == 0 {
			continue
		}
		t := add(&Task{ID: "stage_in_" + j.ID, Type: TaskStageIn, Transfers: ops})
		p.Graph.MustAddEdge(t.ID, j.ID)
		stageIns = append(stageIns, &stageIn{task: t, jobID: j.ID, level: levels[j.ID]})
	}

	// Transfer clustering (Fig. 2): group the stage-in tasks of each
	// workflow level into at most ClusterFactor clustered tasks; within a
	// cluster, transfers execute serially in one session.
	if cfg.ClusterFactor > 1 {
		clusterStageIns(p, stageIns, cfg.ClusterFactor)
	} else {
		// Each staging task is its own (singleton) cluster.
		for _, si := range stageIns {
			si.task.ClusterID = si.task.ID
		}
	}

	// Stage-out tasks for final outputs.
	if cfg.OutputSiteBase != "" {
		for _, j := range w.jobs {
			var ops []TransferOp
			for _, out := range j.Outputs {
				f := w.files[out]
				if f.Output {
					ops = append(ops, TransferOp{
						FileName:  f.Name,
						SourceURL: cfg.siteURL(f.Name),
						DestURL:   cfg.OutputSiteBase + "/" + cfg.WorkflowID + "/" + f.Name,
						SizeBytes: f.SizeBytes,
					})
				}
			}
			if len(ops) == 0 {
				continue
			}
			t := add(&Task{ID: "stage_out_" + j.ID, Type: TaskStageOut, Transfers: ops, ClusterID: "stage_out_" + j.ID})
			p.Graph.MustAddEdge(j.ID, t.ID)
		}
	}

	// Cleanup tasks: delete each site file once every task that reads it
	// (compute consumers; stage-out for outputs) has finished.
	if cfg.Cleanup {
		addCleanupTasks(w, p, cfg)
	}

	// Structure-based priorities on the compute-job DAG, propagated to
	// staging tasks (a staging task inherits its consumer's priority: it
	// is "more important to stage data to a root job" first).
	if cfg.PriorityAlgorithm != "" {
		prios, err := dag.AssignPriorities(jg, cfg.PriorityAlgorithm)
		if err != nil {
			return nil, err
		}
		for _, t := range p.Tasks {
			switch t.Type {
			case TaskCompute:
				t.Priority = prios[t.ID]
			case TaskStageIn:
				// Highest priority among the compute tasks this staging
				// task feeds.
				for _, child := range p.Graph.Children(t.ID) {
					if pr := prios[child]; pr > t.Priority {
						t.Priority = pr
					}
				}
			}
		}
	}

	if !p.Graph.IsAcyclic() {
		return nil, fmt.Errorf("workflow %s: planned graph is cyclic", w.Name)
	}
	return p, nil
}

// clusterStageIns merges the singleton stage-in tasks of each level into at
// most factor clustered tasks. The original tasks are removed from the
// plan; the clustered task adopts their transfers (serially ordered) and
// their graph edges.
func clusterStageIns(p *Plan, stageIns []*stageIn, factor int) {
	byLevel := make(map[int][]*stageIn)
	var lvls []int
	for _, si := range stageIns {
		if _, ok := byLevel[si.level]; !ok {
			lvls = append(lvls, si.level)
		}
		byLevel[si.level] = append(byLevel[si.level], si)
	}
	sort.Ints(lvls)

	// Rebuild the plan without the singleton stage-in tasks.
	removed := make(map[string]bool)
	for _, si := range stageIns {
		removed[si.task.ID] = true
	}
	var kept []*Task
	for _, t := range p.Tasks {
		if !removed[t.ID] {
			kept = append(kept, t)
		}
	}
	oldGraph := p.Graph
	p.Tasks = nil
	p.byID = make(map[string]*Task)
	p.Graph = dag.New()
	for _, t := range kept {
		p.Tasks = append(p.Tasks, t)
		p.byID[t.ID] = t
		p.Graph.MustAddNode(t.ID)
	}
	for _, parent := range oldGraph.Nodes() {
		if removed[parent] {
			continue
		}
		for _, child := range oldGraph.Children(parent) {
			if !removed[child] {
				p.Graph.MustAddEdge(parent, child)
			}
		}
	}

	for _, lvl := range lvls {
		group := byLevel[lvl]
		for c := 0; c < factor; c++ {
			var members []*stageIn
			for i, si := range group {
				if i%factor == c {
					members = append(members, si)
				}
			}
			if len(members) == 0 {
				continue
			}
			id := fmt.Sprintf("stage_in_l%d_c%d", lvl, c)
			ct := &Task{ID: id, Type: TaskStageIn, ClusterID: id}
			for _, m := range members {
				ct.Transfers = append(ct.Transfers, m.task.Transfers...)
			}
			p.Tasks = append(p.Tasks, ct)
			p.byID[id] = ct
			p.Graph.MustAddNode(id)
			for _, m := range members {
				// The clustered task feeds every compute job the
				// originals fed.
				for _, child := range oldGraph.Children(m.task.ID) {
					p.Graph.MustAddEdge(id, child)
				}
			}
		}
	}
}

// stageIn pairs a singleton stage-in task with the compute job and level
// it serves, for use by the clustering pass.
type stageIn struct {
	task  *Task
	jobID string
	level int
}

// addCleanupTasks inserts one cleanup task per site file, depending on all
// tasks that read the file.
func addCleanupTasks(w *Workflow, p *Plan, cfg PlanConfig) {
	// readers maps each logical file present at the compute site to the
	// plan tasks that must finish before it can be deleted.
	readers := make(map[string][]string)
	ensure := func(file string) {
		if _, ok := readers[file]; !ok {
			readers[file] = nil
		}
	}
	for _, t := range p.Tasks {
		switch t.Type {
		case TaskCompute:
			for _, in := range t.Job.Inputs {
				ensure(in)
				readers[in] = append(readers[in], t.ID)
			}
			for _, out := range t.Job.Outputs {
				ensure(out)
				readers[out] = append(readers[out], t.ID)
			}
		case TaskStageOut:
			for _, op := range t.Transfers {
				ensure(op.FileName)
				readers[op.FileName] = append(readers[op.FileName], t.ID)
			}
		}
	}
	files := make([]string, 0, len(readers))
	for f := range readers {
		files = append(files, f)
	}
	sort.Strings(files)
	n := 0
	for _, f := range files {
		deps := readers[f]
		if len(deps) == 0 {
			continue
		}
		n++
		t := &Task{
			ID:        fmt.Sprintf("cleanup_%04d_%s", n, f),
			Type:      TaskCleanup,
			Deletions: []string{cfg.siteURL(f)},
		}
		p.Tasks = append(p.Tasks, t)
		p.byID[t.ID] = t
		p.Graph.MustAddNode(t.ID)
		for _, d := range deps {
			p.Graph.MustAddEdge(d, t.ID)
		}
	}
}
