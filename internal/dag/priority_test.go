package dag

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// wide builds: root -> {m1..m3}; m1 -> {l1, l2}; m2 -> l3; m3 has no
// children. Fan-outs: root=3, m1=2, m2=1, m3=0, leaves=0.
// Descendant counts: root=6, m1=2, m2=1, others=0.
func wide(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"root", "m1", "m2", "m3", "l1", "l2", "l3"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("root", "m1")
	g.MustAddEdge("root", "m2")
	g.MustAddEdge("root", "m3")
	g.MustAddEdge("m1", "l1")
	g.MustAddEdge("m1", "l2")
	g.MustAddEdge("m2", "l3")
	return g
}

func TestBFSPriorities(t *testing.T) {
	g := wide(t)
	p, err := AssignPriorities(g, BFS)
	if err != nil {
		t.Fatalf("AssignPriorities: %v", err)
	}
	// BFS visit order: root, m1, m2, m3, l1, l2, l3.
	want := []string{"root", "m1", "m2", "m3", "l1", "l2", "l3"}
	if got := ranking(p); !equalSlices(got, want) {
		t.Fatalf("BFS ranking = %v, want %v", got, want)
	}
	if p["root"] != g.Len() {
		t.Fatalf("top priority = %d, want %d", p["root"], g.Len())
	}
}

func TestDFSPriorities(t *testing.T) {
	g := wide(t)
	p, err := AssignPriorities(g, DFS)
	if err != nil {
		t.Fatalf("AssignPriorities: %v", err)
	}
	// DFS pre-order: root, m1, l1, l2, m2, l3, m3.
	want := []string{"root", "m1", "l1", "l2", "m2", "l3", "m3"}
	if got := ranking(p); !equalSlices(got, want) {
		t.Fatalf("DFS ranking = %v, want %v", got, want)
	}
}

func TestDirectDependentPriorities(t *testing.T) {
	g := wide(t)
	p, err := AssignPriorities(g, DirectDependent)
	if err != nil {
		t.Fatalf("AssignPriorities: %v", err)
	}
	// Fan-out: root(3) > m1(2) > m2(1) > zero-fanout nodes in topo order.
	r := ranking(p)
	if r[0] != "root" || r[1] != "m1" || r[2] != "m2" {
		t.Fatalf("direct-dependent ranking head = %v", r[:3])
	}
}

func TestDependentPriorities(t *testing.T) {
	g := wide(t)
	p, err := AssignPriorities(g, Dependent)
	if err != nil {
		t.Fatalf("AssignPriorities: %v", err)
	}
	r := ranking(p)
	// Descendants: root(6) > m1(2) > m2(1) > rest(0).
	if r[0] != "root" || r[1] != "m1" || r[2] != "m2" {
		t.Fatalf("dependent ranking head = %v", r[:3])
	}
}

func TestDependentVsDirectDependentDiffer(t *testing.T) {
	// hub has 3 direct children (leaves); chain head has 1 child but 4
	// descendants. Dependent must rank chain head above hub; direct-
	// dependent must do the opposite.
	g := New()
	for _, id := range []string{"hub", "h1", "h2", "h3", "c0", "c1", "c2", "c3", "c4"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("hub", "h1")
	g.MustAddEdge("hub", "h2")
	g.MustAddEdge("hub", "h3")
	g.MustAddEdge("c0", "c1")
	g.MustAddEdge("c1", "c2")
	g.MustAddEdge("c2", "c3")
	g.MustAddEdge("c3", "c4")

	dd, err := AssignPriorities(g, DirectDependent)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := AssignPriorities(g, Dependent)
	if err != nil {
		t.Fatal(err)
	}
	if dd["hub"] <= dd["c0"] {
		t.Fatalf("direct-dependent: hub (%d) should outrank c0 (%d)", dd["hub"], dd["c0"])
	}
	if dep["c0"] <= dep["hub"] {
		t.Fatalf("dependent: c0 (%d) should outrank hub (%d)", dep["c0"], dep["hub"])
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	g := wide(t)
	if _, err := AssignPriorities(g, PriorityAlgorithm("nope")); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestPrioritiesOnCycle(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "a")
	for _, algo := range Algorithms() {
		if _, err := AssignPriorities(g, algo); err == nil {
			t.Errorf("%s: want error on cyclic graph", algo)
		}
	}
}

// TestPriorityProperties: for every algorithm on random DAGs, priorities
// are a bijection onto 1..n, and roots always outrank their descendants
// under BFS and DFS.
func TestPriorityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(30))
		for _, algo := range Algorithms() {
			p, err := AssignPriorities(g, algo)
			if err != nil {
				return false
			}
			if len(p) != g.Len() {
				return false
			}
			seen := make(map[int]bool)
			for _, v := range p {
				if v < 1 || v > g.Len() || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		// Traversal-based algorithms: a node is always ranked above every
		// descendant (parents are visited before children in both BFS and
		// gated DFS on DAGs whose roots dominate — check parent > child).
		for _, algo := range []PriorityAlgorithm{BFS, DFS} {
			p, _ := AssignPriorities(g, algo)
			for _, id := range g.Nodes() {
				for d := range g.Descendants(id) {
					if algo == BFS && p[id] <= p[d] {
						// BFS gates on all parents visited, so every
						// ancestor outranks its descendants.
						return false
					}
					_ = d
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ranking returns node IDs ordered from highest to lowest priority, ties
// by ID.
func ranking(p Priorities) []string {
	ids := make([]string, 0, len(p))
	for id := range p {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if p[ids[i]] != p[ids[j]] {
			return p[ids[i]] > p[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}
