// Package workflow models scientific workflows the way the Pegasus
// Workflow Management System does: an abstract, DAX-like workflow of
// compute jobs connected by data dependencies is *planned* into an
// executable workflow with added data stage-in, stage-out and cleanup
// tasks, optional transfer clustering (Fig. 2 of the paper), and
// structure-based priorities (Section III(c)).
package workflow

import (
	"fmt"
	"sort"

	"policyflow/internal/dag"
)

// File describes a logical file of the workflow.
type File struct {
	// Name is the logical file name, unique within the workflow.
	Name string
	// SizeBytes is the file size.
	SizeBytes int64
	// SourceURL is where the file can be fetched from when it is an
	// external input (replica-catalog entry). Empty for files produced by
	// workflow jobs.
	SourceURL string
	// Output marks a final workflow output that must be staged out.
	Output bool
}

// IsExternalInput reports whether the file pre-exists outside the
// workflow and must be staged in.
func (f *File) IsExternalInput() bool { return f.SourceURL != "" }

// Job is one compute task of the abstract workflow.
type Job struct {
	// ID is unique within the workflow.
	ID string
	// Transformation names the executable (e.g. "mProjectPP").
	Transformation string
	// RuntimeSeconds is the job's execution time on one core.
	RuntimeSeconds float64
	// Inputs and Outputs are logical file names.
	Inputs  []string
	Outputs []string
}

// Workflow is an abstract workflow: jobs plus its file catalog.
type Workflow struct {
	Name  string
	jobs  []*Job
	byID  map[string]*Job
	files map[string]*File
	// producer maps a file name to the job that creates it.
	producer map[string]string
}

// New creates an empty workflow.
func New(name string) *Workflow {
	return &Workflow{
		Name:     name,
		byID:     make(map[string]*Job),
		files:    make(map[string]*File),
		producer: make(map[string]string),
	}
}

// AddFile registers a file. Re-registering a name is an error.
func (w *Workflow) AddFile(f *File) error {
	if f.Name == "" {
		return fmt.Errorf("workflow %s: file with empty name", w.Name)
	}
	if _, ok := w.files[f.Name]; ok {
		return fmt.Errorf("workflow %s: duplicate file %q", w.Name, f.Name)
	}
	w.files[f.Name] = f
	return nil
}

// AddJob registers a job. All input and output files must have been
// registered, job IDs must be unique, and a file may have only one
// producer.
func (w *Workflow) AddJob(j *Job) error {
	if j.ID == "" {
		return fmt.Errorf("workflow %s: job with empty ID", w.Name)
	}
	if _, ok := w.byID[j.ID]; ok {
		return fmt.Errorf("workflow %s: duplicate job %q", w.Name, j.ID)
	}
	for _, in := range j.Inputs {
		if _, ok := w.files[in]; !ok {
			return fmt.Errorf("workflow %s: job %s: unknown input file %q", w.Name, j.ID, in)
		}
	}
	for _, out := range j.Outputs {
		f, ok := w.files[out]
		if !ok {
			return fmt.Errorf("workflow %s: job %s: unknown output file %q", w.Name, j.ID, out)
		}
		if f.IsExternalInput() {
			return fmt.Errorf("workflow %s: job %s: output %q is an external input", w.Name, j.ID, out)
		}
		if p, ok := w.producer[out]; ok {
			return fmt.Errorf("workflow %s: file %q produced by both %s and %s", w.Name, out, p, j.ID)
		}
		w.producer[out] = j.ID
	}
	w.jobs = append(w.jobs, j)
	w.byID[j.ID] = j
	return nil
}

// MustAddFile and MustAddJob panic on error; for generator code.
func (w *Workflow) MustAddFile(f *File) {
	if err := w.AddFile(f); err != nil {
		panic(err)
	}
}

// MustAddJob panics on error; for generator code.
func (w *Workflow) MustAddJob(j *Job) {
	if err := w.AddJob(j); err != nil {
		panic(err)
	}
}

// Jobs returns the jobs in insertion order.
func (w *Workflow) Jobs() []*Job { return append([]*Job(nil), w.jobs...) }

// File returns a file by name.
func (w *Workflow) File(name string) (*File, bool) {
	f, ok := w.files[name]
	return f, ok
}

// Files returns all files sorted by name.
func (w *Workflow) Files() []*File {
	out := make([]*File, 0, len(w.files))
	for _, f := range w.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// JobGraph builds the compute-job dependency DAG from data dependencies:
// an edge runs from the producer of a file to each consumer.
func (w *Workflow) JobGraph() (*dag.Graph, error) {
	g := dag.New()
	for _, j := range w.jobs {
		if err := g.AddNode(j.ID, j); err != nil {
			return nil, err
		}
	}
	for _, j := range w.jobs {
		for _, in := range j.Inputs {
			if p, ok := w.producer[in]; ok {
				if err := g.AddEdge(p, j.ID); err != nil {
					return nil, err
				}
			}
		}
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("workflow %s: %w", w.Name, dag.ErrCycle)
	}
	return g, nil
}

// Validate checks structural integrity: the job graph must be acyclic and
// every non-external file must have a producer if consumed.
func (w *Workflow) Validate() error {
	if _, err := w.JobGraph(); err != nil {
		return err
	}
	for _, j := range w.jobs {
		for _, in := range j.Inputs {
			f := w.files[in]
			if !f.IsExternalInput() && w.producer[in] == "" {
				return fmt.Errorf("workflow %s: job %s consumes %q which nothing produces", w.Name, j.ID, in)
			}
		}
	}
	return nil
}

// Stats summarizes a workflow.
type Stats struct {
	Jobs           int
	Files          int
	ExternalInputs int
	Outputs        int
	TotalInputMB   float64
}

// Stats computes summary statistics.
func (w *Workflow) Stats() Stats {
	s := Stats{Jobs: len(w.jobs), Files: len(w.files)}
	for _, f := range w.files {
		if f.IsExternalInput() {
			s.ExternalInputs++
			s.TotalInputMB += float64(f.SizeBytes) / (1 << 20)
		}
		if f.Output {
			s.Outputs++
		}
	}
	return s
}
