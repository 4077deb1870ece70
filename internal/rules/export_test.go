package rules

import "reflect"

// Engine API that only the engine's own tests call: the refraction-GC
// tests read the retained key count, the delta scripts ask a firing
// action for its rule's name, and the differential harness lists facts
// by a dynamic type.

// RefractionSize returns the number of refraction keys the session retains,
// dead ones awaiting the next sweep included (diagnostic; at most
// max(minSweep, twice the live keys)).
func (s *Session) RefractionSize() int { return len(s.fired) }

// Rule returns the firing rule's name.
func (c *Context) Rule() string { return c.rule.Name }

// Facts returns all facts whose dynamic type equals that of exemplar, in
// insertion order: FactsOf for a type known only at run time.
func (s *Session) Facts(exemplar any) []any {
	items, live := s.extent(reflect.TypeOf(exemplar))
	out := make([]any, 0, live)
	for _, rec := range items {
		if rec != nil {
			out = append(out, rec.value)
		}
	}
	return out
}
