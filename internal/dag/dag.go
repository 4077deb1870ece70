// Package dag implements the directed-acyclic-graph model that underlies
// workflow planning and the structure-based data-staging priority policies
// of Section III(c) of the paper: breadth-first, depth-first,
// direct-dependent-based (fan-out) and dependent-based (total descendant
// count) priority assignment.
//
// The graph is generic over node identity: nodes are identified by string
// IDs, and arbitrary payloads may be attached by callers. Node and edge
// insertion preserve deterministic iteration order (insertion order), which
// keeps planners and priority assignments reproducible.
package dag

import (
	"errors"
	"fmt"
)

// ErrCycle is returned by operations that require acyclicity when the graph
// contains a cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// ErrDuplicateNode is returned when adding a node whose ID already exists.
var ErrDuplicateNode = errors.New("dag: duplicate node")

// ErrUnknownNode is returned when an operation references a missing node.
var ErrUnknownNode = errors.New("dag: unknown node")

// Graph is a directed graph with string-identified nodes. The zero value is
// not usable; call New.
type Graph struct {
	order    []string            // insertion order of node IDs
	payload  map[string]any      // node ID -> payload
	children map[string][]string // edges, in insertion order
	parents  map[string][]string
	edgeSet  map[[2]string]bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		payload:  make(map[string]any),
		children: make(map[string][]string),
		parents:  make(map[string][]string),
		edgeSet:  make(map[[2]string]bool),
	}
}

// AddNode inserts a node with the given ID and payload. It returns
// ErrDuplicateNode if the ID is already present.
func (g *Graph) AddNode(id string, payload any) error {
	if _, ok := g.payload[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	g.order = append(g.order, id)
	g.payload[id] = payload
	return nil
}

// MustAddNode is AddNode but panics on error; intended for construction code
// whose IDs are known unique.
func (g *Graph) MustAddNode(id string, payload any) {
	if err := g.AddNode(id, payload); err != nil {
		panic(err)
	}
}

// HasNode reports whether id is a node of the graph.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.payload[id]
	return ok
}

// AddEdge inserts a directed edge parent->child. Adding an existing edge is
// a no-op. Both endpoints must already exist.
func (g *Graph) AddEdge(parent, child string) error {
	if !g.HasNode(parent) {
		return fmt.Errorf("%w: %q", ErrUnknownNode, parent)
	}
	if !g.HasNode(child) {
		return fmt.Errorf("%w: %q", ErrUnknownNode, child)
	}
	key := [2]string{parent, child}
	if g.edgeSet[key] {
		return nil
	}
	g.edgeSet[key] = true
	g.children[parent] = append(g.children[parent], child)
	g.parents[child] = append(g.parents[child], parent)
	return nil
}

// MustAddEdge is AddEdge but panics on error.
func (g *Graph) MustAddEdge(parent, child string) {
	if err := g.AddEdge(parent, child); err != nil {
		panic(err)
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.order) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.edgeSet) }

// Nodes returns all node IDs in insertion order.
func (g *Graph) Nodes() []string {
	return append([]string(nil), g.order...)
}

// Children returns the direct successors of id in edge insertion order.
func (g *Graph) Children(id string) []string {
	return append([]string(nil), g.children[id]...)
}

// Parents returns the direct predecessors of id in edge insertion order.
func (g *Graph) Parents(id string) []string {
	return append([]string(nil), g.parents[id]...)
}

// Roots returns the nodes with no parents, in insertion order.
func (g *Graph) Roots() []string {
	var roots []string
	for _, id := range g.order {
		if len(g.parents[id]) == 0 {
			roots = append(roots, id)
		}
	}
	return roots
}

// TopoSort returns a topological ordering of the nodes, or ErrCycle. The
// ordering is deterministic: among ready nodes, insertion order wins
// (Kahn's algorithm with a stable ready list).
func (g *Graph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.order))
	for _, id := range g.order {
		indeg[id] = len(g.parents[id])
	}
	// ready is maintained in insertion order.
	var ready []string
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	out := make([]string, 0, len(g.order))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, c := range g.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(out) != len(g.order) {
		return nil, ErrCycle
	}
	return out, nil
}

// IsAcyclic reports whether the graph has no directed cycles.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// Levels assigns each node its depth: roots are level 0 and every other
// node is 1 + max(level of parents). Returns ErrCycle on cyclic graphs.
// Pegasus' horizontal clustering groups jobs within a level.
func (g *Graph) Levels() (map[string]int, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	levels := make(map[string]int, len(topo))
	for _, id := range topo {
		lvl := 0
		for _, p := range g.parents[id] {
			if levels[p]+1 > lvl {
				lvl = levels[p] + 1
			}
		}
		levels[id] = lvl
	}
	return levels, nil
}

// Descendants returns the set of nodes reachable from id via child edges,
// excluding id itself.
func (g *Graph) Descendants(id string) map[string]bool {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(n string) {
		for _, c := range g.children[n] {
			if !seen[c] {
				seen[c] = true
				walk(c)
			}
		}
	}
	walk(id)
	return seen
}
