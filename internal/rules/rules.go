// Package rules implements a forward-chaining production rule engine in the
// style of Drools, which the paper uses to implement its Policy Service
// (Section IV). The engine provides:
//
//   - a working memory of typed facts with insert / update / retract,
//   - rules declared as data: a sequence of patterns (a join over fact
//     types with guard predicates) plus a right-hand-side action,
//   - an agenda with Drools-like conflict resolution (salience, then fact
//     recency, oldest first, then rule declaration order),
//   - refraction (an activation fires at most once per fact-tuple state)
//     and a NoLoop option (at most once per fact tuple, ever),
//   - a fire budget that guarantees termination of FireAll.
//
// Rules are pure data handed to a session, so — as the paper argues for its
// Drools rules — policy behaviour is separated from application logic and
// can be swapped per deployment.
//
// Facts must be pointers (or otherwise comparable values); updates mutate
// the fact in place and then call Update to re-evaluate affected rules.
package rules

import (
	"fmt"
	"reflect"
)

// FactHandle identifies a fact inside a session's working memory.
type FactHandle int64

// Bindings gives guard predicates and rule actions access to the facts
// matched by the patterns evaluated so far, by pattern name.
type Bindings interface {
	// Get returns the fact bound to the named pattern, or nil.
	Get(name string) any
	// Handle returns the working-memory handle of the named binding, or 0.
	Handle(name string) FactHandle
}

// Pattern is one condition of a rule: it matches facts of a single dynamic
// type and may further constrain the match with a guard that can consult
// earlier bindings (making the rule a join).
type Pattern struct {
	// Name binds the matched fact for later patterns and the RHS. Negated
	// patterns bind nothing and need no name.
	Name string
	// typ is the dynamic fact type matched by this pattern.
	typ reflect.Type
	// where is the guard; nil means unconditional.
	where func(b Bindings, v any) bool
	// negated inverts the pattern: it succeeds only when no fact of typ
	// satisfies the guard (Drools "not").
	negated bool
	// index, when non-empty, names an alpha-memory index (registered with
	// AddIndexOf on this pattern's fact type) that the incremental matcher
	// probes instead of scanning every fact of the type. bind resolves the
	// hint once, at AddRule: it checks that the registered index is keyed by
	// the lookup's result type and returns the typed probe, so a probe
	// neither boxes its key nor repeats the type check.
	index string
	bind  func(ix alphaIndex) (prober, error)
}

// prober finds the index bucket a hinted pattern joins against, given the
// bindings of the earlier patterns. A non-nil seed subscribes to the probed
// key (see seed); a nil seed only reads, and gets nil for an absent key.
type prober func(t *tuple, sd *seed) *bucket

// Match constructs a Pattern matching facts of dynamic type T (use the
// same type facts are inserted with — conventionally a pointer type). The
// guard may be nil.
func Match[T any](name string, where func(b Bindings, v T) bool) Pattern {
	var zero T
	p := Pattern{Name: name, typ: reflect.TypeOf(zero)}
	if p.typ == nil {
		panic("rules: Match requires a concrete type parameter")
	}
	if where != nil {
		p.where = func(b Bindings, v any) bool { return where(b, v.(T)) }
	}
	return p
}

// MatchOn is Match with an alpha-index hint: instead of scanning every
// fact of type T, the incremental matcher probes the named index (see
// AddIndexOf) with the key computed by lookup from the bindings of earlier
// patterns. The hint is pure acceleration — the guard must still fully
// constrain the match on its own, because the reference engine ignores
// hints. K must be the index's key type; AddRule rejects a mismatch.
func MatchOn[T any, K comparable](name, index string, lookup func(b Bindings) K, where func(b Bindings, v T) bool) Pattern {
	return hinted(Match(name, where), index, lookup)
}

// hinted attaches an index hint to p.
func hinted[K comparable](p Pattern, index string, lookup func(b Bindings) K) Pattern {
	p.index = index
	if lookup == nil {
		return p // rejected by validate
	}
	p.bind = func(ix alphaIndex) (prober, error) {
		tix, ok := ix.(*typedIndex[K])
		if !ok {
			var k K
			return nil, fmt.Errorf("lookup returns %T keys", k)
		}
		return func(t *tuple, sd *seed) *bucket { return tix.probe(lookup(t), sd) }, nil
	}
	return p
}

// Not constructs a negated Pattern: the enclosing rule matches only when no
// fact of type T satisfies the guard (nil guard = no fact of type T exists
// at all). Negated patterns contribute no binding.
func Not[T any](where func(b Bindings, v T) bool) Pattern {
	p := Match("", where)
	p.negated = true
	return p
}

// NotOn is Not with an alpha-index hint; see MatchOn.
func NotOn[T any, K comparable](index string, lookup func(b Bindings) K, where func(b Bindings, v T) bool) Pattern {
	return hinted(Not(where), index, lookup)
}

// Rule is a production: when all patterns match (a join), the action runs.
type Rule struct {
	// Name identifies the rule in traces and refraction keys; must be
	// unique within a session.
	Name string
	// Salience orders activations: higher fires first. Default 0.
	Salience int
	// NoLoop prevents the rule from ever firing twice on the same tuple
	// of fact handles, even if the facts are updated.
	NoLoop bool
	// Gate, when non-nil, is consulted before the rule's patterns are
	// matched; a false return removes the rule from the agenda without
	// scanning any facts. It lets a caller install every rule set up front
	// and select among them per firing cycle (e.g. by the active policy
	// bundle) at the cost of one closure call instead of a fact join. The
	// gate runs inside FireAll and must not re-enter the session.
	Gate func() bool
	// When is the sequence of patterns joined left to right.
	When []Pattern
	// Then is the right-hand side, run when the rule fires.
	Then func(ctx *Context)
}

// maxPatterns bounds the number of positive (binding) patterns per rule so
// tuples and refraction keys are fixed-size values (see tuple, refKey).
const maxPatterns = 6

func (r *Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("rules: rule with empty name")
	}
	if len(r.When) == 0 {
		return fmt.Errorf("rules: rule %q has no patterns", r.Name)
	}
	positive := 0
	seen := map[string]bool{}
	for i, p := range r.When {
		if p.typ == nil {
			return fmt.Errorf("rules: rule %q pattern %d built without Match/Not", r.Name, i)
		}
		if p.index != "" && p.bind == nil {
			return fmt.Errorf("rules: rule %q pattern %d names index %q without a lookup", r.Name, i, p.index)
		}
		if p.negated {
			if p.Name != "" {
				return fmt.Errorf("rules: rule %q negated pattern %d must not bind a name", r.Name, i)
			}
			continue
		}
		positive++
		if positive > maxPatterns {
			return fmt.Errorf("rules: rule %q has more than %d binding patterns", r.Name, maxPatterns)
		}
		if p.Name == "" {
			return fmt.Errorf("rules: rule %q pattern %d has no binding name", r.Name, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("rules: rule %q duplicate binding %q", r.Name, p.Name)
		}
		seen[p.Name] = true
	}
	if r.Then == nil {
		return fmt.Errorf("rules: rule %q has no action", r.Name)
	}
	return nil
}

// Context is passed to a firing rule's action. It exposes the matched
// bindings and working-memory operations, and is a Memory for the queries.
// Mutating a fact's fields must be followed by Update for dependent rules
// to re-evaluate. The session reuses one Context across firings, so an
// action must not retain it.
type Context struct {
	s     *Session
	tuple *tuple
	rule  *Rule
}

// Get returns the fact bound to the named pattern.
func (c *Context) Get(name string) any { return c.tuple.Get(name) }

// Handle returns the handle bound to the named pattern.
func (c *Context) Handle(name string) FactHandle { return c.tuple.Handle(name) }

// Insert adds a fact to working memory.
func (c *Context) Insert(v any) FactHandle { return c.s.Insert(v) }

// Update signals that fact v (matched by identity) was modified.
func (c *Context) Update(v any) { c.s.Update(v) }

// Retract removes fact v (matched by identity) from working memory.
func (c *Context) Retract(v any) { c.s.Retract(v) }

func (c *Context) session() *Session { return c.s }

// tuple is the concrete Bindings: the facts bound by a rule's positive
// patterns, in pattern order. It is a fixed-size value — the join binds and
// unbinds in place and an activation holds a copy — and the binding names
// are the rule's (ruleRT.names), not a per-tuple slice.
type tuple struct {
	names *[maxPatterns]string
	n     int
	recs  [maxPatterns]*factRecord
}

func (t *tuple) Get(name string) any {
	for i := 0; i < t.n; i++ {
		if t.names[i] == name {
			return t.recs[i].value
		}
	}
	return nil
}

func (t *tuple) Handle(name string) FactHandle {
	for i := 0; i < t.n; i++ {
		if t.names[i] == name {
			return t.recs[i].handle
		}
	}
	return 0
}

// binds reports whether rec already occupies a position of the tuple: a
// fact may satisfy at most one pattern position.
func (t *tuple) binds(rec *factRecord) bool {
	for i := 0; i < t.n; i++ {
		if t.recs[i] == rec {
			return true
		}
	}
	return false
}

// refKey builds the tuple's refraction key and returns it with the maximum
// recency across the bound facts.
func (t *tuple) refKey(ruleIndex int, noLoop bool) (refKey, int64) {
	key := refKey{rule: int32(ruleIndex)}
	var maxRec int64
	for i := 0; i < t.n; i++ {
		key.handles[i] = t.recs[i].handle
		if t.recs[i].recency > maxRec {
			maxRec = t.recs[i].recency
		}
	}
	if !noLoop {
		key.maxRec = maxRec
	}
	return key, maxRec
}
