//go:build !rules_noref

package rules

// The naive full-rejoin matcher, kept as the oracle for the differential
// harness (diff_test.go, FuzzSessionOps): it rebuilds the whole conflict
// set from scratch before every firing, ignores index hints, and shares
// nothing with the incremental matcher but the tuple and activation records
// it hands to FireAll and the conflict-resolution order: its join extends a
// fresh copy of the tuple per candidate instead of binding and unbinding in
// place. Build with -tags rules_noref
// to exclude it from a production binary (see reference_stub.go).

// NewReferenceSession returns a session driven by the naive full-rejoin
// matcher instead of the incremental one. Semantics are identical; cost per
// firing is O(rules × facts^joins).
func NewReferenceSession() *Session {
	s := NewSession()
	s.reference = true
	return s
}

// bestActivationNaive recomputes every rule's matches and returns the
// winner of conflict resolution, or nil. Called with s.mu held.
func (s *Session) bestActivationNaive() *activation {
	var best *activation
	for i, r := range s.rules {
		if r.Gate != nil && !r.Gate() {
			continue
		}
		s.matchNaive(r, i, func(a *activation) {
			if best == nil || better(a, best) {
				best = a
			}
		})
	}
	return best
}

// matchNaive emits every unfired activation of r by scanning the type
// extents.
func (s *Session) matchNaive(r *Rule, ruleIndex int, emit func(*activation)) {
	names := new([maxPatterns]string)
	n := 0
	for _, p := range r.When {
		if !p.negated {
			names[n] = p.Name
			n++
		}
	}
	var join func(depth int, t *tuple)
	join = func(depth int, t *tuple) {
		if depth == len(r.When) {
			a := &activation{rule: r, ruleIndex: ruleIndex, tuple: *t}
			a.key, a.recency = t.refKey(ruleIndex, r.NoLoop)
			if _, fired := s.fired[a.key]; !fired {
				emit(a)
			}
			return
		}
		p := &r.When[depth]
		var cands []*factRecord
		if l := s.byType[p.typ]; l != nil {
			cands = l.items
		}
		if p.negated {
			for _, rec := range cands {
				if rec != nil && (p.where == nil || p.where(t, rec.value)) {
					return
				}
			}
			join(depth+1, t)
			return
		}
		for _, rec := range cands {
			// A fact may satisfy at most one pattern position in a tuple.
			if rec == nil || t.binds(rec) {
				continue
			}
			bound := *t
			bound.recs[bound.n] = rec
			bound.n++
			if p.where == nil || p.where(&bound, rec.value) {
				join(depth+1, &bound)
			}
		}
	}
	join(0, &tuple{names: names})
}
