package rules

// Engine API that only the engine's own tests call: the differential
// harness and the fuzzer drive existential patterns, halting and
// handle-based retraction through it, and the refraction-GC tests read the
// retained key count.

// RefractionSize returns the number of refraction keys the session retains,
// dead ones awaiting the next sweep included (diagnostic; at most
// max(minSweep, twice the live keys)).
func (s *Session) RefractionSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fired)
}

// Exists constructs an existential Pattern (Drools "exists"): the rule
// matches when at least one fact of type T satisfies the guard, but the
// fact is not bound and the rule fires at most once per surrounding tuple
// regardless of how many facts satisfy it.
func Exists[T any](where func(b Bindings, v T) bool) Pattern {
	p := Match("", where)
	p.existential = true
	return p
}

// Rule returns the firing rule's name.
func (c *Context) Rule() string { return c.rule.Name }

// RetractHandle removes the fact with the given handle.
func (c *Context) RetractHandle(h FactHandle) { c.s.retractHandle(h) }

// Halt stops FireAll after the current action returns.
func (c *Context) Halt() { c.s.halted = true }

// CtxFirst returns the first fact of type T matching pred (nil = any).
func CtxFirst[T any](c *Context, pred func(T) bool) (T, bool) {
	for _, v := range CtxFactsOf[T](c) {
		if pred == nil || pred(v) {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// CtxCountOf counts facts of type T matching pred (nil = all).
func CtxCountOf[T any](c *Context, pred func(T) bool) int {
	n := 0
	for _, v := range CtxFactsOf[T](c) {
		if pred == nil || pred(v) {
			n++
		}
	}
	return n
}
