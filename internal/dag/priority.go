package dag

import "sort"

// Priorities maps node IDs to a staging priority. Larger values mean more
// important: stage data for that node first. All four algorithms below
// produce a total order (distinct priorities) so that transfer ordering is
// deterministic; ties within an algorithm's natural ranking are broken by
// topological position and then node insertion order.
type Priorities map[string]int

// PriorityAlgorithm identifies one of the structure-based priority
// assignment algorithms of Section III(c).
type PriorityAlgorithm string

const (
	// BFS assigns higher priorities to nodes visited earlier in a
	// breadth-first traversal from the roots.
	BFS PriorityAlgorithm = "bfs"
	// DFS assigns higher priorities to nodes visited earlier in a
	// depth-first traversal from the roots.
	DFS PriorityAlgorithm = "dfs"
	// DirectDependent assigns the highest priority to the node with the
	// largest number of direct children (fan-out).
	DirectDependent PriorityAlgorithm = "direct-dependent"
	// Dependent assigns the highest priority to the node with the most
	// total descendants (not just direct children).
	Dependent PriorityAlgorithm = "dependent"
)

// Algorithms lists every supported priority algorithm.
func Algorithms() []PriorityAlgorithm {
	return []PriorityAlgorithm{BFS, DFS, DirectDependent, Dependent}
}

// AssignPriorities computes priorities for every node of g using the given
// algorithm. The highest priority equals g.Len() and the lowest is 1.
// Unknown algorithms and cyclic graphs yield an error.
func AssignPriorities(g *Graph, algo PriorityAlgorithm) (Priorities, error) {
	switch algo {
	case BFS:
		return bfsPriorities(g)
	case DFS:
		return dfsPriorities(g)
	case DirectDependent:
		return scorePriorities(g, func(id string) int { return len(g.children[id]) })
	case Dependent:
		return scorePriorities(g, func(id string) int { return len(g.Descendants(id)) })
	default:
		return nil, errUnknownAlgorithm(algo)
	}
}

type errUnknownAlgorithm PriorityAlgorithm

func (e errUnknownAlgorithm) Error() string {
	return "dag: unknown priority algorithm " + string(e)
}

// bfsPriorities ranks nodes by breadth-first visit order from the roots.
// A node is only visited once all is well-defined even for DAGs with
// multiple parents: first time reached wins.
func bfsPriorities(g *Graph) (Priorities, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	visited := make(map[string]bool, g.Len())
	var order []string
	queue := g.Roots()
	for _, r := range queue {
		visited[r] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, c := range g.children[n] {
			if !visited[c] && allVisited(g.parents[c], visited) {
				visited[c] = true
				queue = append(queue, c)
			}
		}
	}
	// Nodes unreachable through the parent-gated queue (none in a DAG, but
	// defensive) get appended in insertion order.
	for _, id := range g.order {
		if !visited[id] {
			visited[id] = true
			order = append(order, id)
		}
	}
	return orderToPriorities(order), nil
}

func allVisited(ids []string, visited map[string]bool) bool {
	for _, id := range ids {
		if !visited[id] {
			return false
		}
	}
	return true
}

// dfsPriorities ranks nodes by pre-order depth-first visit order from the
// roots (in insertion order).
func dfsPriorities(g *Graph) (Priorities, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	visited := make(map[string]bool, g.Len())
	var order []string
	var walk func(string)
	walk = func(n string) {
		if visited[n] {
			return
		}
		visited[n] = true
		order = append(order, n)
		for _, c := range g.children[n] {
			walk(c)
		}
	}
	for _, r := range g.Roots() {
		walk(r)
	}
	for _, id := range g.order {
		walk(id)
	}
	return orderToPriorities(order), nil
}

// scorePriorities ranks nodes by a per-node score, descending; ties are
// broken by topological order so parents outrank children at equal score,
// and then by insertion order.
func scorePriorities(g *Graph, score func(id string) int) (Priorities, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	topoIdx := make(map[string]int, len(topo))
	for i, id := range topo {
		topoIdx[id] = i
	}
	ids := g.Nodes()
	sort.SliceStable(ids, func(i, j int) bool {
		si, sj := score(ids[i]), score(ids[j])
		if si != sj {
			return si > sj
		}
		return topoIdx[ids[i]] < topoIdx[ids[j]]
	})
	return orderToPriorities(ids), nil
}

// orderToPriorities converts a visit order (earliest = most important) into
// numeric priorities, with the first node receiving len(order).
func orderToPriorities(order []string) Priorities {
	p := make(Priorities, len(order))
	n := len(order)
	for i, id := range order {
		p[id] = n - i
	}
	return p
}
