package rules

import (
	"fmt"
	"reflect"
)

// The incremental matcher. A rule's matches are grouped by seed — the fact
// bound by the rule's first pattern — and each seed remembers what its last
// join depended on: the activations it produced and the index keys it
// probed at later positions. A working-memory change dirties exactly the
// seeds it can affect (the changed fact itself, where it is a seed, and the
// subscribers of its old and new index keys), and the next pick re-joins
// only those. A later pattern without an index hint scans its type's whole
// extent, so nothing narrower than the type describes what its seeds
// depend on: a change to that type dirties every seed of the rule
// (allDirty) — the same mechanism at its coarsest, not a second path.
//
// This is sound because guards and probe-key functions are pure functions
// of the bound facts and the candidate (see Session): a seed's join can
// only change when a fact it bound, or a fact entering or leaving a bucket
// or extent it examined, changes — and every fact it bound at a later
// position was found in such a bucket or extent.

// refKey is the refraction key: a comparable struct instead of a built
// string, so the leaf of every join allocates nothing. The recency state of
// a tuple is identified by the maximum recency across its facts: the global
// clock is strictly monotonic and a fact's recency only increases, so two
// distinct recency vectors over the same handles always differ in their
// maximum. maxRec is zero for NoLoop rules (updates never re-arm them).
type refKey struct {
	rule    int32
	maxRec  int64
	handles [maxPatterns]FactHandle
}

// ruleRT is the per-rule runtime state of the incremental matcher.
type ruleRT struct {
	rule  *Rule
	index int
	// names[i] is the binding name of the rule's i-th positive pattern.
	names [maxPatterns]string
	// probes[i] is the index probe of pattern i, or nil when the pattern
	// scans the type extent.
	probes []prober
	// root is non-nil for a rule whose first pattern is negated: it has
	// no first-position facts, so its one seed is root, bound to nothing.
	root *factRecord
	// seeds holds the seeds that currently have activations or
	// subscriptions; a first-position fact that fails the first guard
	// needs no record.
	seeds map[FactHandle]*seed
	// dirty queues the seeds (by fact) to re-join at the next pick;
	// allDirty re-enumerates every first-position fact instead.
	dirty    []*factRecord
	allDirty bool
	// gateOn is the gate's value at the last pick, so gate flips are
	// detected without fact mutation.
	gateOn bool
}

// seed is the match state of one first-position fact under one rule.
type seed struct {
	rt   *ruleRT
	rec  *factRecord
	acts []*activation
	subs []subscription
	// queued dedupes subscription notifications between picks; epoch is
	// the pick that last joined the seed, so a fact queued twice is
	// joined once.
	queued bool
	epoch  int64
}

// subscription is one index key a seed's last join probed; pos is the
// position of the matching entry in the bucket's subs. seen marks the
// subscriptions the current join has re-confirmed.
type subscription struct {
	b    bucketRef
	pos  int
	seen bool
}

func (s *Session) newRuleRT(r *Rule, index int) (*ruleRT, error) {
	rt := &ruleRT{
		rule:     r,
		index:    index,
		probes:   make([]prober, len(r.When)),
		seeds:    make(map[FactHandle]*seed),
		allDirty: true,
		gateOn:   true,
	}
	n := 0
	for i := range r.When {
		p := &r.When[i]
		if !p.negated {
			rt.names[n] = p.Name
			n++
		}
		if p.index == "" {
			continue
		}
		ix := s.indexes[indexID{typ: p.typ, name: p.index}]
		if ix == nil {
			return nil, fmt.Errorf("rules: rule %q pattern %d references unregistered index %q on %v", r.Name, i, p.index, p.typ)
		}
		probe, err := p.bind(ix)
		if err != nil {
			return nil, fmt.Errorf("rules: rule %q pattern %d index %q on %v: %v", r.Name, i, p.index, p.typ, err)
		}
		rt.probes[i] = probe
	}
	first := 1
	if r.When[0].negated {
		rt.root = &factRecord{live: true}
		first = 0
	} else {
		s.seedRules[r.When[0].typ] = append(s.seedRules[r.When[0].typ], rt)
	}
	scanned := map[reflect.Type]bool{}
	for i := first; i < len(r.When); i++ {
		if t := r.When[i].typ; rt.probes[i] == nil && !scanned[t] {
			scanned[t] = true
			s.scanRules[t] = append(s.scanRules[t], rt)
		}
	}
	return rt, nil
}

// touched propagates a working-memory change to fact rec of type t: rec is
// a dirty seed of every rule whose first pattern matches t, and every seed
// of a rule that scans t's extent is dirty. Index subscribers are dirtied
// by the indexes themselves.
func (s *Session) touched(t reflect.Type, rec *factRecord) {
	for _, rt := range s.seedRules[t] {
		// A gated-off or fully dirty rule re-enumerates its seeds anyway.
		if rt.gateOn && !rt.allDirty {
			rt.dirty = append(rt.dirty, rec)
		}
	}
	for _, rt := range s.scanRules[t] {
		rt.allDirty = true
	}
}

// markDirty queues the seed for re-join at the next pick.
func (sd *seed) markDirty() {
	if !sd.queued {
		sd.queued = true
		sd.rt.dirty = append(sd.rt.dirty, sd.rec)
	}
}

// unsubscribe removes the seed's i-th subscription, keeping both sides'
// back-references consistent, and releases the bucket if that was its last
// use.
func (sd *seed) unsubscribe(i int) {
	sub := sd.subs[i]
	bb := sub.b.base()
	if last := len(bb.subs) - 1; sub.pos != last {
		moved := bb.subs[last]
		bb.subs[sub.pos] = moved
		moved.sd.subs[moved.slot].pos = sub.pos
	}
	bb.subs[len(bb.subs)-1] = subscriber{}
	bb.subs = bb.subs[:len(bb.subs)-1]
	if last := len(sd.subs) - 1; i != last {
		moved := sd.subs[last]
		sd.subs[i] = moved
		moved.b.base().subs[moved.pos].slot = i
	}
	sd.subs[len(sd.subs)-1] = subscription{}
	sd.subs = sd.subs[:len(sd.subs)-1]
	sub.b.release()
}

// repair brings the rule's seeds up to date with working memory. Called
// inside FireAll, gate on.
func (s *Session) repair(rt *ruleRT) {
	switch {
	case rt.allDirty:
		rt.allDirty = false
		s.dropSeeds(rt)
		if rt.root != nil {
			s.joinSeed(rt, rt.root)
			return
		}
		p := &rt.rule.When[0]
		var cands []*factRecord
		if probe := rt.probes[0]; probe != nil {
			s.tup = tuple{names: &rt.names}
			if b := probe(&s.tup, nil); b != nil {
				cands = b.members()
			}
		} else if l := s.byType[p.typ]; l != nil {
			cands = l.items
		}
		for _, rec := range cands {
			if rec != nil {
				s.joinSeed(rt, rec)
			}
		}
	case len(rt.dirty) > 0:
		// joinSeed never appends to rt.dirty: subscribing notifies no one.
		for _, rec := range rt.dirty {
			s.joinSeed(rt, rec)
		}
		clear(rt.dirty)
		rt.dirty = rt.dirty[:0]
	}
}

// dropSeeds discards all of the rule's match state.
func (s *Session) dropSeeds(rt *ruleRT) {
	for h, sd := range rt.seeds {
		s.agenda.withdraw(sd)
		for len(sd.subs) > 0 {
			sd.unsubscribe(len(sd.subs) - 1)
		}
		delete(rt.seeds, h)
		s.agenda.freeSeed(sd)
	}
	clear(rt.dirty)
	rt.dirty = rt.dirty[:0]
}

// joinSeed re-joins one seed: it withdraws the seed's activations, matches
// the rule with rec bound first, and keeps exactly the subscriptions the
// new join made.
func (s *Session) joinSeed(rt *ruleRT, rec *factRecord) {
	sd := rt.seeds[rec.handle]
	known := sd != nil
	if !known && !rec.live {
		return
	}
	if known {
		if sd.epoch == s.agenda.epoch {
			return
		}
		s.agenda.withdraw(sd)
		for i := range sd.subs {
			sd.subs[i].seen = false
		}
	} else {
		sd = s.agenda.newSeed(rt, rec)
	}
	sd.queued = false
	sd.epoch = s.agenda.epoch

	s.tup = tuple{names: &rt.names}
	switch {
	case rt.root != nil:
		s.join(rt, sd, 0)
	case rec.live:
		s.probes++
		s.tup.recs[0], s.tup.n = rec, 1
		if p := &rt.rule.When[0]; p.where == nil || p.where(&s.tup, rec.value) {
			s.join(rt, sd, 1)
		}
	}

	for i := len(sd.subs) - 1; i >= 0; i-- {
		if !sd.subs[i].seen {
			sd.unsubscribe(i)
		}
	}
	if len(sd.acts) == 0 && len(sd.subs) == 0 {
		delete(rt.seeds, rec.handle)
		s.agenda.freeSeed(sd)
	} else if !known {
		rt.seeds[rec.handle] = sd
	}
}

// join matches patterns depth.. against s.tup and emits one activation per
// complete, unfired tuple.
func (s *Session) join(rt *ruleRT, sd *seed, depth int) {
	t := &s.tup
	if depth == len(rt.rule.When) {
		key, maxRec := t.refKey(rt.index, rt.rule.NoLoop)
		if _, fired := s.fired[key]; !fired {
			sd.acts = append(sd.acts, s.agenda.push(rt, sd, t, key, maxRec))
		}
		return
	}
	s.probes++
	p := &rt.rule.When[depth]
	var cands []*factRecord
	if probe := rt.probes[depth]; probe != nil {
		cands = probe(t, sd).members()
	} else if l := s.byType[p.typ]; l != nil {
		cands = l.items
	}
	if p.negated {
		// Negation binds nothing and succeeds when nothing matched.
		for _, rec := range cands {
			if rec != nil && (p.where == nil || p.where(t, rec.value)) {
				return
			}
		}
		s.join(rt, sd, depth+1)
		return
	}
	n := t.n
	for _, rec := range cands {
		if rec == nil || t.binds(rec) {
			continue
		}
		t.recs[n], t.n = rec, n+1
		if p.where == nil || p.where(t, rec.value) {
			s.join(rt, sd, depth+1)
		}
		t.n = n
	}
}
