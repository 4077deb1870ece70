package rules

// activation is a rule ready to fire on a specific tuple.
type activation struct {
	rule      *Rule
	ruleIndex int
	tuple     tuple
	recency   int64 // max recency across tuple facts
	key       refKey
	// sd is the seed whose join produced the activation and pos its index
	// in the agenda's heap, so the seed withdraws it without a search.
	sd  *seed
	pos int
}

// better reports whether a wins conflict resolution over b: salience
// descending, then fact recency ascending (FIFO: the activation over the
// least recently touched facts first), then rule declaration order, then
// lexicographic tuple handles. Distinct activations always differ at some
// level (same rule + same handles + same recency state is the same
// activation), so this is a total order and the order in which
// activations are discovered never affects which fires.
func better(a, b *activation) bool {
	if a.rule.Salience != b.rule.Salience {
		return a.rule.Salience > b.rule.Salience
	}
	if a.recency != b.recency {
		return a.recency < b.recency
	}
	if a.ruleIndex != b.ruleIndex {
		return a.ruleIndex < b.ruleIndex
	}
	// Deterministic final tie-break: earlier handles first.
	for k := range a.key.handles {
		if a.key.handles[k] != b.key.handles[k] {
			return a.key.handles[k] < b.key.handles[k]
		}
	}
	return false
}

// poolCap bounds each free list, so one huge batch does not pin its
// matcher state for the session's lifetime.
const poolCap = 1024

// agenda is the persistent conflict set of the incremental matcher: a
// binary heap of activations under better. Every activation knows its heap
// position, so a seed that re-joins withdraws its old activations in
// O(log n) each and the heap never holds a stale entry; a pick is the root.
// Activations and seeds are recycled, so a steady-state firing cycle
// allocates neither.
type agenda struct {
	heap []*activation
	// epoch numbers the picks (see seed.epoch).
	epoch     int64
	freeActs  []*activation
	freeSeeds []*seed
}

// push adds the activation of rt on tuple t to the heap.
func (ag *agenda) push(rt *ruleRT, sd *seed, t *tuple, key refKey, maxRec int64) *activation {
	var a *activation
	if n := len(ag.freeActs); n > 0 {
		a = ag.freeActs[n-1]
		ag.freeActs = ag.freeActs[:n-1]
	} else {
		a = new(activation)
	}
	*a = activation{rule: rt.rule, ruleIndex: rt.index, tuple: *t, recency: maxRec, key: key, sd: sd, pos: len(ag.heap)}
	ag.heap = append(ag.heap, a)
	ag.up(a.pos)
	return a
}

// withdraw removes and recycles all of a seed's activations.
func (ag *agenda) withdraw(sd *seed) {
	for i, a := range sd.acts {
		ag.remove(a)
		ag.recycle(a)
		sd.acts[i] = nil
	}
	sd.acts = sd.acts[:0]
}

// take removes a from the agenda and from its seed: it is about to fire.
func (ag *agenda) take(a *activation) {
	ag.remove(a)
	acts := a.sd.acts
	for i, x := range acts {
		if x == a {
			acts[i] = acts[len(acts)-1]
			acts[len(acts)-1] = nil
			a.sd.acts = acts[:len(acts)-1]
			break
		}
	}
}

// remove deletes a from the heap.
func (ag *agenda) remove(a *activation) {
	h := ag.heap
	i, last := a.pos, len(h)-1
	if i != last {
		h[i] = h[last]
		h[i].pos = i
	}
	h[last] = nil
	ag.heap = h[:last]
	if i != last {
		ag.down(i)
		ag.up(i)
	}
}

// recycle returns an activation that is off the heap to the free list.
func (ag *agenda) recycle(a *activation) {
	if len(ag.freeActs) < poolCap {
		*a = activation{}
		ag.freeActs = append(ag.freeActs, a)
	}
}

func (ag *agenda) newSeed(rt *ruleRT, rec *factRecord) *seed {
	if n := len(ag.freeSeeds); n > 0 {
		sd := ag.freeSeeds[n-1]
		ag.freeSeeds = ag.freeSeeds[:n-1]
		sd.rt, sd.rec = rt, rec
		return sd
	}
	return &seed{rt: rt, rec: rec}
}

// freeSeed recycles a seed that holds no activations and no subscriptions.
func (ag *agenda) freeSeed(sd *seed) {
	if len(ag.freeSeeds) < poolCap {
		*sd = seed{acts: sd.acts[:0], subs: sd.subs[:0]}
		ag.freeSeeds = append(ag.freeSeeds, sd)
	}
}

func (ag *agenda) up(i int) {
	h := ag.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !better(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].pos, h[parent].pos = i, parent
		i = parent
	}
}

func (ag *agenda) down(i int) {
	h := ag.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && better(h[c+1], h[c]) {
			c++
		}
		if !better(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		h[i].pos, h[c].pos = i, c
		i = c
	}
}

// nextActivation repairs the agenda and returns the winner of conflict
// resolution, or nil if the agenda is empty. Per rule: the gate is
// re-evaluated (a flip to on dirties every seed, a flip to off drops the
// rule's match state) and dirty seeds are re-joined; clean seeds cost
// nothing. Called inside FireAll.
func (s *Session) nextActivation() *activation {
	s.agenda.epoch++
	for _, rt := range s.rt {
		on := rt.rule.Gate == nil || rt.rule.Gate()
		if on != rt.gateOn {
			rt.gateOn = on
			if on {
				rt.allDirty = true
			} else {
				s.dropSeeds(rt)
			}
		}
		if on {
			s.repair(rt)
		}
	}
	if len(s.agenda.heap) == 0 {
		return nil
	}
	return s.agenda.heap[0]
}
