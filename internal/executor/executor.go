// Package executor runs planned workflows, playing the role of
// DAGMan/Condor in the paper's setup: tasks are released when their
// dependencies complete, data staging and cleanup tasks are throttled by a
// local job limit (the paper uses 20, "so that at most 20 data staging
// jobs will be released at once"), compute tasks occupy cluster cores, and
// failed tasks are retried (the paper configures "five retries on failure
// per job").
package executor

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"policyflow/internal/simnet"
	"policyflow/internal/transfer"
	"policyflow/internal/workflow"
)

// Config configures one workflow execution.
type Config struct {
	// ComputeCores is the number of cluster cores available to compute
	// tasks (the paper's Obelix allocation: 9 nodes x 6 cores).
	ComputeCores int
	// StagingSlots is the local job limit shared by staging and cleanup
	// tasks; the paper uses 20.
	StagingSlots int
	// Retries is the per-task retry budget after the first attempt.
	Retries int
	// RetryDelaySeconds is the pause before re-running a failed task.
	RetryDelaySeconds float64
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		ComputeCores:      54,
		StagingSlots:      20,
		Retries:           5,
		RetryDelaySeconds: 5,
	}
}

func (c *Config) normalize() error {
	if c.ComputeCores < 1 {
		return errors.New("executor: ComputeCores must be >= 1")
	}
	if c.StagingSlots < 1 {
		return errors.New("executor: StagingSlots must be >= 1")
	}
	if c.Retries < 0 {
		return errors.New("executor: negative Retries")
	}
	if c.RetryDelaySeconds < 0 {
		return errors.New("executor: negative RetryDelaySeconds")
	}
	return nil
}

// TaskRecord captures one task's execution.
type TaskRecord struct {
	// Type is the task's type, for per-type aggregation.
	Type workflow.TaskType
	// Start is when the task was released (dependencies satisfied).
	Start float64
	// ExecStart is when the task last began executing, after acquiring
	// its resource (cores or staging slots); queue time is Start..ExecStart.
	ExecStart float64
	// End is when the task finished (successfully or not).
	End      float64
	Attempts int
	Failed   bool
}

// Result summarizes a finished run.
type Result struct {
	// Makespan is the virtual time from start to the last task's end.
	Makespan float64
	// Completed counts tasks that finished successfully.
	Completed int
	// ByType counts completed tasks per type.
	ByType map[workflow.TaskType]int
	// Retries counts extra attempts across all tasks.
	Retries int
	// FailedTasks lists tasks that exhausted their retry budget.
	FailedTasks []string
	// Unreached counts tasks never released because an ancestor failed.
	Unreached int
	// Records holds per-task execution details.
	Records map[string]*TaskRecord
	// BusyTimeByType sums task execution seconds (resource acquired to
	// end) per task type — how the workflow's time was actually spent.
	BusyTimeByType map[workflow.TaskType]float64
	// QueueTimeByType sums seconds tasks spent released but waiting for
	// a core or staging slot.
	QueueTimeByType map[workflow.TaskType]float64
}

// WriteTimeline emits the per-task execution timeline as CSV
// (task,type,released,started,ended,attempts,failed), ordered by release
// time — ready for plotting a Gantt chart of the run.
func (r *Result) WriteTimeline(w io.Writer) error {
	type row struct {
		id  string
		rec *TaskRecord
	}
	rows := make([]row, 0, len(r.Records))
	for id, rec := range r.Records {
		rows = append(rows, row{id, rec})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rec.Start != rows[j].rec.Start {
			return rows[i].rec.Start < rows[j].rec.Start
		}
		return rows[i].id < rows[j].id
	})
	if _, err := fmt.Fprintln(w, "task,type,released,started,ended,attempts,failed"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%.3f,%.3f,%.3f,%d,%t\n",
			r.id, r.rec.Type, r.rec.Start, r.rec.ExecStart, r.rec.End,
			r.rec.Attempts, r.rec.Failed); err != nil {
			return err
		}
	}
	return nil
}

// Handle tracks an in-flight workflow execution. Call Result after the
// simulation has run to completion.
type Handle struct {
	plan    *workflow.Plan
	cfg     Config
	start   float64
	lastEnd float64

	indeg   map[string]int
	records map[string]*TaskRecord
	done    int
	byType  map[workflow.TaskType]int
	retries int
	failed  []string
}

// Start launches the plan's tasks on env using ptt for data operations.
// Compute cores and staging slots may be shared across workflows by
// passing the same resources to several Start calls.
func Start(env *simnet.Env, plan *workflow.Plan, ptt *transfer.PTT,
	cores, slots *simnet.Resource, cfg Config) (*Handle, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cores == nil || slots == nil {
		return nil, errors.New("executor: cores and slots resources are required")
	}
	h := &Handle{
		plan:    plan,
		cfg:     cfg,
		start:   env.Now(),
		indeg:   make(map[string]int, len(plan.Tasks)),
		records: make(map[string]*TaskRecord, len(plan.Tasks)),
		byType:  make(map[workflow.TaskType]int),
	}
	for _, t := range plan.Tasks {
		h.indeg[t.ID] = len(plan.Graph.Parents(t.ID))
	}
	// Release roots in deterministic plan order.
	for _, t := range plan.Tasks {
		if h.indeg[t.ID] == 0 {
			h.spawn(env, ptt, cores, slots, t)
		}
	}
	return h, nil
}

// spawn starts one task process.
func (h *Handle) spawn(env *simnet.Env, ptt *transfer.PTT, cores, slots *simnet.Resource, t *workflow.Task) {
	rec := &TaskRecord{Type: t.Type}
	h.records[t.ID] = rec
	env.Go(h.plan.WorkflowID+"/"+t.ID, func(p *simnet.Proc) {
		rec.Start = p.Now()
		var err error
		for attempt := 0; ; attempt++ {
			rec.Attempts = attempt + 1
			err = h.execute(p, ptt, cores, slots, t, rec)
			if err == nil {
				break
			}
			if attempt >= h.cfg.Retries {
				break
			}
			h.retries++
			p.Sleep(h.cfg.RetryDelaySeconds)
		}
		rec.End = p.Now()
		if rec.End > h.lastEnd {
			h.lastEnd = rec.End
		}
		if err != nil {
			rec.Failed = true
			h.failed = append(h.failed, t.ID)
			return // children are never released
		}
		h.done++
		h.byType[t.Type]++
		for _, child := range h.plan.Graph.Children(t.ID) {
			h.indeg[child]--
			if h.indeg[child] == 0 {
				ct, _ := h.plan.Task(child)
				h.spawn(env, ptt, cores, slots, ct)
			}
		}
	})
}

// execute performs a single attempt of a task.
func (h *Handle) execute(p *simnet.Proc, ptt *transfer.PTT, cores, slots *simnet.Resource, t *workflow.Task, rec *TaskRecord) error {
	acquire := func(do func()) {
		do()
		rec.ExecStart = p.Now()
	}
	switch t.Type {
	case workflow.TaskCompute:
		acquire(func() { cores.Acquire(p, 1) })
		defer cores.Release(1)
		p.Sleep(t.Job.RuntimeSeconds)
		return nil
	case workflow.TaskStageIn, workflow.TaskStageOut:
		acquire(func() { slots.AcquirePriority(p, 1, t.Priority) })
		defer slots.Release(1)
		return ptt.ExecuteList(p, h.plan.WorkflowID, t.ClusterID, t.Transfers, t.Priority)
	case workflow.TaskCleanup:
		acquire(func() { slots.Acquire(p, 1) })
		defer slots.Release(1)
		return ptt.ExecuteCleanups(p, h.plan.WorkflowID, t.Deletions)
	default:
		return fmt.Errorf("executor: unknown task type %v", t.Type)
	}
}

// Result returns the run summary. Call it only after env.Run has drained.
// It returns an error when tasks failed permanently or were never
// released.
func (h *Handle) Result() (*Result, error) {
	res := &Result{
		Makespan:        h.lastEnd - h.start,
		Completed:       h.done,
		ByType:          h.byType,
		Retries:         h.retries,
		Records:         h.records,
		Unreached:       len(h.plan.Tasks) - h.done - len(h.failed),
		BusyTimeByType:  make(map[workflow.TaskType]float64),
		QueueTimeByType: make(map[workflow.TaskType]float64),
	}
	for _, rec := range h.records {
		if rec.End > 0 {
			res.BusyTimeByType[rec.Type] += rec.End - rec.ExecStart
			res.QueueTimeByType[rec.Type] += rec.ExecStart - rec.Start
		}
	}
	if len(h.failed) > 0 {
		sort.Strings(h.failed)
		res.FailedTasks = h.failed
		return res, fmt.Errorf("executor: %d task(s) failed permanently (first: %s), %d unreached",
			len(h.failed), h.failed[0], res.Unreached)
	}
	if res.Unreached > 0 {
		return res, fmt.Errorf("executor: %d task(s) never released", res.Unreached)
	}
	return res, nil
}
