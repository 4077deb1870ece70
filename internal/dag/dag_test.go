package dag

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic diamond DAG: a -> {b,c} -> d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"a", "b", "c", "d"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("a", "c")
	g.MustAddEdge("b", "d")
	g.MustAddEdge("c", "d")
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	if err := g.AddNode("x"); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := g.AddNode("x"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("want ErrDuplicateNode, got %v", err)
	}
	// The duplicate is rejected, not added a second time.
	if n := g.Len(); n != 1 {
		t.Fatalf("Len = %d after a duplicate, want 1: %v", n, g.Nodes())
	}
}

func TestAddEdgeUnknownNode(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	if err := g.AddEdge("a", "missing"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
	if err := g.AddEdge("missing", "a"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("a", "b")
	if got := g.EdgeCount(); got != 1 {
		t.Fatalf("EdgeCount = %d, want 1", got)
	}
	if got := len(g.Children("a")); got != 1 {
		t.Fatalf("Children(a) = %d entries, want 1", got)
	}
}

func TestRootsLeaves(t *testing.T) {
	g := diamond(t)
	if roots := g.Roots(); len(roots) != 1 || roots[0] != "a" {
		t.Fatalf("Roots = %v", roots)
	}
}

func TestTopoSortRespectsEdges(t *testing.T) {
	g := diamond(t)
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := map[string]int{}
	for i, id := range topo {
		pos[id] = i
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %v violated in topo order %v", e, topo)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "a")
	if _, err := g.TopoSort(); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic = true for cyclic graph")
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	levels, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	want := map[string]int{"a": 0, "b": 1, "c": 1, "d": 2}
	for id, lvl := range want {
		if levels[id] != lvl {
			t.Errorf("level[%s] = %d, want %d", id, levels[id], lvl)
		}
	}
}

func TestLevelsLongestPath(t *testing.T) {
	// a -> b -> d and a -> d directly: d's level must be 2 (longest path).
	g := New()
	for _, id := range []string{"a", "b", "d"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "d")
	g.MustAddEdge("a", "d")
	levels, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if levels["d"] != 2 {
		t.Fatalf("level[d] = %d, want 2", levels["d"])
	}
}

func TestDescendantsAncestors(t *testing.T) {
	g := diamond(t)
	desc := g.Descendants("a")
	if len(desc) != 3 || !desc["b"] || !desc["c"] || !desc["d"] {
		t.Fatalf("Descendants(a) = %v", desc)
	}
	if d := g.Descendants("d"); len(d) != 0 {
		t.Fatalf("Descendants(d) = %v, want empty", d)
	}
	anc := ancestors(g, "d")
	if len(anc) != 3 || !anc["a"] || !anc["b"] || !anc["c"] {
		t.Fatalf("Ancestors(d) = %v", anc)
	}
	if a := ancestors(g, "a"); len(a) != 0 {
		t.Fatalf("Ancestors(a) = %v, want empty", a)
	}
}

// randomDAG builds a random DAG with n nodes where edges only go from lower
// to higher index, guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		g.MustAddNode(ids[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				g.MustAddEdge(ids[i], ids[j])
			}
		}
	}
	return g
}

// TestTopoSortProperty: for random DAGs, TopoSort succeeds and respects
// every edge; Levels is consistent with parent levels.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(40))
		topo, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, id := range topo {
			pos[id] = i
		}
		for _, id := range g.Nodes() {
			for _, c := range g.Children(id) {
				if pos[id] >= pos[c] {
					return false
				}
			}
		}
		levels, err := g.Levels()
		if err != nil {
			return false
		}
		for _, id := range g.Nodes() {
			want := 0
			for _, p := range g.Parents(id) {
				if levels[p]+1 > want {
					want = levels[p] + 1
				}
			}
			if levels[id] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// ancestors returns the set of nodes from which id is reachable, excluding
// id itself: the inverse of Descendants, walked over parent edges.
func ancestors(g *Graph, id string) map[string]bool {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(n string) {
		for _, p := range g.parents[n] {
			if !seen[p] {
				seen[p] = true
				walk(p)
			}
		}
	}
	walk(id)
	return seen
}

// TestDescendantsProperty: |Descendants| is consistent with reachability via
// ancestors (x ∈ Desc(y) ⇔ y ∈ Anc(x)).
func TestDescendantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(25))
		for _, y := range g.Nodes() {
			for x := range g.Descendants(y) {
				if !ancestors(g, x)[y] {
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
