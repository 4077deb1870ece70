package synth

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"policyflow/internal/dag"
)

func gen(t *testing.T, shape Shape, jobs int) *graphInfo {
	t.Helper()
	w, err := Generate(Config{Shape: shape, Jobs: jobs, Seed: 42})
	if err != nil {
		t.Fatalf("%s: %v", shape, err)
	}
	g, err := w.JobGraph()
	if err != nil {
		t.Fatal(err)
	}
	return &graphInfo{g: g, jobs: len(w.Jobs())}
}

type graphInfo struct {
	g    *dag.Graph
	jobs int
}

// leaves returns the nodes of g with no children, in insertion order.
func leaves(g *dag.Graph) []string {
	var out []string
	for _, id := range g.Nodes() {
		if len(g.Children(id)) == 0 {
			out = append(out, id)
		}
	}
	return out
}

func TestChainShape(t *testing.T) {
	gi := gen(t, Chain, 6)
	if gi.jobs != 6 || gi.g.EdgeCount() != 5 {
		t.Fatalf("jobs=%d edges=%d", gi.jobs, gi.g.EdgeCount())
	}
	if len(gi.g.Roots()) != 1 || len(leaves(gi.g)) != 1 {
		t.Fatalf("roots=%v leaves=%v", gi.g.Roots(), leaves(gi.g))
	}
}

func TestFanOutShape(t *testing.T) {
	gi := gen(t, FanOut, 7)
	if len(gi.g.Roots()) != 1 {
		t.Fatalf("roots = %v", gi.g.Roots())
	}
	root := gi.g.Roots()[0]
	if got := len(gi.g.Children(root)); got != 6 {
		t.Fatalf("root children = %d", got)
	}
	// Structure priorities separate root from leaves.
	p, err := dag.AssignPriorities(gi.g, dag.Dependent)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range leaves(gi.g) {
		if p[root] <= p[leaf] {
			t.Fatalf("root priority %d <= leaf %d", p[root], p[leaf])
		}
	}
}

func TestFanInShape(t *testing.T) {
	gi := gen(t, FanIn, 7)
	if len(leaves(gi.g)) != 1 {
		t.Fatalf("leaves = %v", leaves(gi.g))
	}
	sink := leaves(gi.g)[0]
	if got := len(gi.g.Parents(sink)); got != 6 {
		t.Fatalf("sink parents = %d", got)
	}
}

func TestDiamondShape(t *testing.T) {
	gi := gen(t, Diamond, 12)
	if gi.jobs != 12 {
		t.Fatalf("jobs = %d", gi.jobs)
	}
	if !gi.g.IsAcyclic() {
		t.Fatal("cyclic")
	}
	// Diamonds have both fan-out and fan-in nodes.
	fanOut, fanIn := false, false
	for _, id := range gi.g.Nodes() {
		if len(gi.g.Children(id)) > 1 {
			fanOut = true
		}
		if len(gi.g.Parents(id)) > 1 {
			fanIn = true
		}
	}
	if !fanOut || !fanIn {
		t.Fatalf("fanOut=%v fanIn=%v", fanOut, fanIn)
	}
}

func TestRandomShapeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		jobs := 4 + rng.Intn(40)
		w, err := Generate(Config{Shape: Random, Jobs: jobs, Seed: seed})
		if err != nil {
			return false
		}
		if len(w.Jobs()) != jobs {
			return false
		}
		g, err := w.JobGraph()
		if err != nil {
			return false
		}
		if !g.IsAcyclic() {
			return false
		}
		// Every job has its own external input: planning yields one
		// stage-in per job.
		return w.Stats().ExternalInputs == jobs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Shape: Random, Jobs: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Shape: Random, Jobs: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := a.JobGraph()
	gb, _ := b.JobGraph()
	if ga.EdgeCount() != gb.EdgeCount() {
		t.Fatalf("nondeterministic: %d vs %d edges", ga.EdgeCount(), gb.EdgeCount())
	}
	for _, id := range ga.Nodes() {
		for _, c := range ga.Children(id) {
			if !slices.Contains(gb.Children(id), c) {
				t.Fatalf("edge %s->%s missing in second run", id, c)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Generate(Config{Shape: "möbius", Jobs: 5}); err == nil {
		t.Error("unknown shape accepted")
	}
	if _, err := Generate(Config{Shape: Chain, Jobs: 1}); err == nil {
		t.Error("1 job accepted")
	}
	w, err := Generate(Config{Jobs: 5}) // default shape
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "synth-fan-out" {
		t.Fatalf("name = %s", w.Name)
	}
}
