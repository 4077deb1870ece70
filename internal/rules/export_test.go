package rules

// Engine API that only the engine's own tests call: the refraction-GC
// tests read the retained key count, and the delta scripts ask a firing
// action for its rule's name.

// RefractionSize returns the number of refraction keys the session retains,
// dead ones awaiting the next sweep included (diagnostic; at most
// max(minSweep, twice the live keys)).
func (s *Session) RefractionSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fired)
}

// Rule returns the firing rule's name.
func (c *Context) Rule() string { return c.rule.Name }

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
