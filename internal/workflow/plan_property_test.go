package workflow

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// randomWF builds a random layered workflow: each job may consume a fresh
// external input and outputs of earlier jobs.
func randomWF(rng *rand.Rand) *Workflow {
	w := New("prop")
	n := 2 + rng.Intn(20)
	for i := 0; i < n; i++ {
		id := jobID(i)
		var inputs []string
		if rng.Intn(3) > 0 { // most jobs have an external input
			ext := "ext_" + id
			w.MustAddFile(&File{Name: ext, SizeBytes: 1 << 20, SourceURL: "http://src.example.org/" + ext})
			inputs = append(inputs, ext)
		}
		// Consume up to 2 earlier outputs.
		for k := 0; k < rng.Intn(3) && i > 0; k++ {
			p := rng.Intn(i)
			inputs = append(inputs, "out_"+jobID(p))
		}
		out := "out_" + id
		w.MustAddFile(&File{Name: out, SizeBytes: 1 << 20, Output: rng.Intn(5) == 0})
		w.MustAddJob(&Job{ID: id, RuntimeSeconds: 1, Inputs: dedup(inputs), Outputs: []string{out}})
	}
	return w
}

func jobID(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func dedup(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// TestPlanInvariantsProperty checks, over random workflows and planning
// options, the planner's structural invariants:
//
//  1. the planned graph is acyclic;
//  2. every compute job with external inputs is fed by exactly one
//     stage-in task carrying all (and only) its external inputs —
//     clustered or not;
//  3. with cleanup on, every file used at the compute site has exactly
//     one cleanup task, ordered after all its readers;
//  4. every workflow output has a stage-out task when an output site is
//     configured.
func TestPlanInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWF(rng)
		cfg := PlanConfig{
			WorkflowID:      "prop",
			ComputeSiteBase: "file://site.example.org/scratch",
			OutputSiteBase:  "file://store.example.org/out",
			Cleanup:         rng.Intn(2) == 0,
			ClusterFactor:   rng.Intn(4), // 0..3
		}
		p, err := w.Plan(cfg)
		if err != nil {
			return false
		}
		if !p.Graph.IsAcyclic() {
			return false
		}
		// (2) staged files reach their consumers.
		stagedFor := map[string]map[string]bool{} // jobID -> file set
		for _, task := range p.TasksOf(TaskStageIn) {
			for _, child := range p.Graph.Children(task.ID) {
				ct, ok := p.Task(child)
				if !ok || ct.Type != TaskCompute {
					return false
				}
				if stagedFor[child] == nil {
					stagedFor[child] = map[string]bool{}
				}
				for _, op := range task.Transfers {
					stagedFor[child][op.FileName] = true
				}
			}
		}
		for _, j := range w.Jobs() {
			for _, in := range j.Inputs {
				file, _ := w.File(in)
				if file.IsExternalInput() {
					if !stagedFor[j.ID][in] {
						return false
					}
				}
			}
		}
		// (3) cleanup count and ordering.
		if cfg.Cleanup {
			seen := map[string]bool{}
			for _, task := range p.TasksOf(TaskCleanup) {
				for _, url := range task.Deletions {
					if seen[url] {
						return false // duplicate cleanup
					}
					seen[url] = true
				}
				if len(p.Graph.Parents(task.ID)) == 0 {
					return false // cleanup with no readers
				}
			}
		}
		// (4) outputs staged out.
		outTasks := p.TasksOf(TaskStageOut)
		wantOutputs := 0
		for _, file := range w.Files() {
			if file.Output && w.Producer(file.Name) != "" {
				wantOutputs++
			}
		}
		gotOutputs := 0
		for _, task := range outTasks {
			gotOutputs += len(task.Transfers)
			if !strings.HasPrefix(task.ID, "stage_out_") {
				return false
			}
		}
		return gotOutputs == wantOutputs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDAXRoundTripProperty: random workflows survive DAX serialization
// with identical structure.
func TestDAXRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWF(rng)
		var buf strings.Builder
		if err := w.WriteDAX(&buf); err != nil {
			return false
		}
		got, err := ReadDAX(strings.NewReader(buf.String()))
		if err != nil {
			return false
		}
		if len(got.Jobs()) != len(w.Jobs()) {
			return false
		}
		g1, err1 := w.JobGraph()
		g2, err2 := got.JobGraph()
		if err1 != nil || err2 != nil {
			return false
		}
		if g1.EdgeCount() != g2.EdgeCount() {
			return false
		}
		for _, id := range g1.Nodes() {
			for _, c := range g1.Children(id) {
				if !slices.Contains(g2.Children(id), c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
