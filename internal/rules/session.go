package rules

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// ErrBudgetExhausted is returned by FireAll when the firing budget is spent
// before the agenda empties — almost always a rule loop.
var ErrBudgetExhausted = errors.New("rules: firing budget exhausted")

// DefaultBudget is the FireAll firing budget used when none is given.
const DefaultBudget = 100000

// factRecord is a fact as stored in working memory.
type factRecord struct {
	handle  FactHandle
	value   any
	recency int64 // bumped on insert and update; drives conflict resolution
	live    bool  // false once retracted; tuples and queues may outlive the fact
	// buckets[i] is the bucket the fact sits in under the i-th index of
	// its type (Session.typeIndexes order).
	buckets []bucketRef
}

// Session is a rule session: working memory plus a rule base. It
// corresponds to a Drools stateful knowledge session; the paper's Policy
// Memory is the working memory of one long-lived session.
//
// Matching is incremental (Rete-style): each fact type's extent is an
// alpha memory, activations persist between firings in one ordered agenda,
// and a mutation dirties only the seeds (first-position facts) of each rule
// whose join bound or probed the touched fact (see join.go). Guards and
// probe-key functions must therefore be pure functions of the facts bound
// by the rule's patterns (and, for a guard, the candidate) — one reading
// other mutable state must be paired with Invalidate when that state
// changes, and a fact mutated in place is invisible to matching until
// Update is called.
//
// Sessions are safe for concurrent use; every exported method locks.
type Session struct {
	mu       sync.Mutex
	rules    []*Rule
	rt       []*ruleRT
	facts    map[FactHandle]*factRecord
	byType   map[reflect.Type]*recList // insertion-ordered per type
	identity map[any]*factRecord
	// indexes holds the registered alpha indexes; typeIndexes groups them
	// by fact type for maintenance on insert/update/retract.
	indexes     map[indexID]alphaIndex
	typeIndexes map[reflect.Type][]alphaIndex
	// seedRules maps a fact type to the rules whose first pattern matches
	// it: a touched fact of the type is a dirty seed of each. scanRules
	// maps a type to the rules that scan its whole extent at a later
	// position (no index hint), where any touched fact dirties every seed.
	seedRules map[reflect.Type][]*ruleRT
	scanRules map[reflect.Type][]*ruleRT
	next      FactHandle
	clock     int64
	// fired is the refraction memory. A key is dead once one of its facts
	// is retracted or (unless NoLoop) updated: handles are never reused
	// and recency only grows, so a dead key can never match again. Dead
	// keys are swept whenever the map doubles (markFired), which bounds
	// it by twice the live keys however long the session lives — the
	// paper's Policy Memory persists for the service lifetime.
	fired   map[refKey]struct{}
	sweepAt int
	agenda  agenda
	// tup is the join's working tuple and ctx the Context handed to
	// actions; both are reused, since guards and actions run under the
	// session lock and cannot re-enter the matcher.
	tup     tuple
	ctx     Context
	probes  int64 // see Probes
	firings int64
	// observer, when set, is invoked once per rule firing with the rule
	// name and its salience, in firing (i.e. conflict-resolution) order.
	// It runs with the session lock held, so it must not call back into
	// the session.
	observer func(rule string, salience int)
	// reference selects the naive full-rejoin matcher (see reference.go),
	// kept as the differential-testing oracle.
	reference bool
}

// NewSession returns an empty session.
func NewSession() *Session {
	s := &Session{
		facts:       make(map[FactHandle]*factRecord),
		byType:      make(map[reflect.Type]*recList),
		identity:    make(map[any]*factRecord),
		indexes:     make(map[indexID]alphaIndex),
		typeIndexes: make(map[reflect.Type][]alphaIndex),
		seedRules:   make(map[reflect.Type][]*ruleRT),
		scanRules:   make(map[reflect.Type][]*ruleRT),
		fired:       make(map[refKey]struct{}),
		sweepAt:     minSweep,
	}
	s.ctx.s = s
	return s
}

// Firings returns the total number of rule firings over the session's
// lifetime.
func (s *Session) Firings() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firings
}

// Probes returns the number of pattern evaluations (a first-pattern guard, an
// index probe or an extent scan) the incremental matcher has made over the
// session's lifetime: its unit of repair work, independent of the clock.
func (s *Session) Probes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probes
}

// minSweep is the smallest refraction-memory size that triggers a sweep.
const minSweep = 64

// markFired records key in the refraction memory, sweeping dead keys first
// when the memory has doubled since the last sweep.
func (s *Session) markFired(key refKey) {
	if len(s.fired) >= s.sweepAt {
		for k := range s.fired {
			if !s.keyLive(k) {
				delete(s.fired, k)
			}
		}
		s.sweepAt = max(minSweep, 2*len(s.fired))
	}
	s.fired[key] = struct{}{}
}

// keyLive reports whether a refraction key could still suppress a firing:
// every fact is in working memory and, unless the rule is NoLoop (maxRec
// 0), none was updated since the key was recorded.
func (s *Session) keyLive(k refKey) bool {
	var maxRec int64
	for _, h := range k.handles {
		if h == 0 {
			break
		}
		rec := s.facts[h]
		if rec == nil {
			return false
		}
		maxRec = max(maxRec, rec.recency)
	}
	return k.maxRec == 0 || k.maxRec == maxRec
}

// SetFiringObserver installs a callback invoked once per rule firing
// with the rule's name and salience, in the exact order firings occur.
// The policy layer uses it to record decision provenance. The callback
// runs under the session lock and must not re-enter the session. Nil
// disables.
func (s *Session) SetFiringObserver(f func(rule string, salience int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = f
}

// AddRule appends a rule to the rule base. Rule names must be unique, and
// any index hints must name indexes already registered with AddIndex.
func (s *Session) AddRule(r *Rule) error {
	if err := r.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, existing := range s.rules {
		if existing.Name == r.Name {
			return fmt.Errorf("rules: duplicate rule name %q", r.Name)
		}
	}
	rt, err := s.newRuleRT(r, len(s.rules))
	if err != nil {
		return err
	}
	s.rules = append(s.rules, r)
	s.rt = append(s.rt, rt)
	return nil
}

// MustAddRules adds each rule, panicking on error. Intended for static rule
// sets validated by tests.
func (s *Session) MustAddRules(rs ...*Rule) {
	for _, r := range rs {
		if err := s.AddRule(r); err != nil {
			panic(err)
		}
	}
}

// Invalidate marks every seed of every rule for re-join at the next firing
// cycle. Call it when state outside working memory that guards or probe
// keys read — for the policy layer, the active bundle's tunables — changes.
func (s *Session) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rt := range s.rt {
		rt.allDirty = true
	}
}

// Insert adds a fact to working memory and returns its handle. Inserting a
// value already present (by identity) returns the existing handle.
func (s *Session) Insert(v any) FactHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insert(v)
}

func (s *Session) insert(v any) FactHandle {
	if v == nil {
		panic("rules: insert of nil fact")
	}
	if rec, ok := s.identity[v]; ok {
		return rec.handle
	}
	s.next++
	s.clock++
	rec := &factRecord{handle: s.next, value: v, recency: s.clock, live: true}
	s.facts[rec.handle] = rec
	t := reflect.TypeOf(v)
	l := s.byType[t]
	if l == nil {
		l = newRecList()
		s.byType[t] = l
	}
	l.add(rec)
	s.identity[v] = rec
	if ixs := s.typeIndexes[t]; len(ixs) > 0 {
		rec.buckets = make([]bucketRef, len(ixs))
		for _, ix := range ixs {
			ix.insert(rec)
		}
	}
	s.touched(t, rec)
	return rec.handle
}

// Update marks an existing fact (matched by identity) as modified so rules
// re-evaluate against it. Unknown facts are ignored.
func (s *Session) Update(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.update(v)
}

func (s *Session) update(v any) {
	rec, ok := s.identity[v]
	if !ok {
		return
	}
	s.clock++
	rec.recency = s.clock
	t := reflect.TypeOf(v)
	for _, ix := range s.typeIndexes[t] {
		ix.update(rec)
	}
	s.touched(t, rec)
}

// Retract removes a fact (matched by identity). Unknown facts are ignored.
func (s *Session) Retract(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retract(v)
}

func (s *Session) retract(v any) {
	rec, ok := s.identity[v]
	if !ok {
		return
	}
	rec.live = false
	delete(s.facts, rec.handle)
	delete(s.identity, rec.value)
	t := reflect.TypeOf(rec.value)
	s.byType[t].remove(rec)
	for _, ix := range s.typeIndexes[t] {
		ix.retract(rec)
	}
	s.touched(t, rec)
}

// FactCount returns the number of facts in working memory.
func (s *Session) FactCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.facts)
}

// Facts returns all facts whose dynamic type equals that of exemplar, in
// insertion order.
func (s *Session) Facts(exemplar any) []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.factsOfType(reflect.TypeOf(exemplar))
}

func (s *Session) factsOfType(t reflect.Type) []any {
	l := s.byType[t]
	if l == nil {
		return nil
	}
	out := make([]any, 0, len(l.pos))
	for _, rec := range l.items {
		if rec != nil {
			out = append(out, rec.value)
		}
	}
	return out
}

// FactsOf returns all facts of type T in insertion order.
func FactsOf[T any](s *Session) []T {
	var zero T
	vals := s.Facts(zero)
	out := make([]T, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.(T))
	}
	return out
}

// First returns the first fact of type T matching pred (nil pred = any),
// and whether one was found.
func First[T any](s *Session, pred func(T) bool) (T, bool) {
	for _, v := range FactsOf[T](s) {
		if pred == nil || pred(v) {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// CountOf returns the number of facts of type T matching pred (nil = all).
func CountOf[T any](s *Session, pred func(T) bool) int {
	n := 0
	for _, v := range FactsOf[T](s) {
		if pred == nil || pred(v) {
			n++
		}
	}
	return n
}

// FireAll runs the match–resolve–act cycle until the agenda is empty or
// budget firings have occurred (budget <= 0 selects DefaultBudget). It
// returns the number of rule firings.
func (s *Session) FireAll(budget int) (int, error) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	firings := 0
	for firings < budget {
		act := s.pick()
		if act == nil {
			return firings, nil
		}
		s.markFired(act.key)
		if !s.reference {
			s.agenda.take(act)
		}
		if s.observer != nil {
			s.observer(act.rule.Name, act.rule.Salience)
		}
		s.ctx.tuple, s.ctx.rule = &act.tuple, act.rule
		act.rule.Then(&s.ctx)
		if !s.reference {
			s.agenda.recycle(act)
		}
		firings++
		s.firings++
	}
	if s.pick() == nil {
		return firings, nil
	}
	return firings, fmt.Errorf("%w after %d firings", ErrBudgetExhausted, firings)
}

// pick returns the activation winning conflict resolution, or nil; it
// stays on the agenda until taken. Called with s.mu held.
func (s *Session) pick() *activation {
	if s.reference {
		return s.bestActivationNaive()
	}
	return s.nextActivation()
}

// Reset clears working memory and refraction state but keeps the rule base
// and registered indexes.
func (s *Session) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.facts = make(map[FactHandle]*factRecord)
	s.byType = make(map[reflect.Type]*recList)
	s.identity = make(map[any]*factRecord)
	s.fired = make(map[refKey]struct{})
	s.sweepAt = minSweep
	for _, ix := range s.indexes {
		ix.reset()
	}
	s.agenda = agenda{}
	for _, rt := range s.rt {
		rt.seeds = make(map[FactHandle]*seed)
		rt.dirty = nil
		rt.allDirty = true
		rt.gateOn = true
	}
}
