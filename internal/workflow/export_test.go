package workflow

// Queries that only this package's tests use.

// Job returns a job by ID.
func (w *Workflow) Job(id string) (*Job, bool) {
	j, ok := w.byID[id]
	return j, ok
}

// Producer returns the job ID producing the named file ("" for external
// inputs).
func (w *Workflow) Producer(file string) string { return w.producer[file] }

// TasksOf returns all tasks of the given type, in plan order.
func (p *Plan) TasksOf(tt TaskType) []*Task {
	var out []*Task
	for _, t := range p.Tasks {
		if t.Type == tt {
			out = append(out, t)
		}
	}
	return out
}

// Count returns the number of tasks of the given type.
func (p *Plan) Count(tt TaskType) int { return len(p.TasksOf(tt)) }
