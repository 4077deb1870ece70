package rules

// Differential harness: the incremental matcher is proven bit-for-bit
// equivalent to the naive full-rejoin reference engine by driving both
// through randomized seeded schedules of insert/update/retract/FireAll —
// covering NoLoop, gates flipping mid-run, negation, positive patterns
// after negated ones, retraction from an action, and budget exhaustion —
// and asserting identical firing sequences, refraction sizes, and final
// fact sets. Because the reference matcher ignores index hints, the
// harness also validates that every generated hint is sound (the hinted
// bucket loses no matches).

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Three fact types so generated rules exercise multi-type joins.
type dA struct{ K, V int }
type dB struct{ K, V int }
type dC struct{ K, V int }

func dKV(v any) (int, int) {
	switch f := v.(type) {
	case *dA:
		return f.K, f.V
	case *dB:
		return f.K, f.V
	case *dC:
		return f.K, f.V
	}
	panic(fmt.Sprintf("unexpected fact %T", v))
}

func dSetKV(v any, k, val int) {
	switch f := v.(type) {
	case *dA:
		f.K, f.V = k, val
	case *dB:
		f.K, f.V = k, val
	case *dC:
		f.K, f.V = k, val
	}
}

func dNew(typ, k, v int) any {
	switch typ % 3 {
	case 0:
		return &dA{K: k, V: v}
	case 1:
		return &dB{K: k, V: v}
	}
	return &dC{K: k, V: v}
}

// registerKIndex registers the "k" alpha index on all three types.
func registerKIndex(t *testing.T, s *Session) {
	t.Helper()
	for _, err := range []error{
		AddIndexOf(s, "k", func(f *dA) int { return f.K }),
		AddIndexOf(s, "k", func(f *dB) int { return f.K }),
		AddIndexOf(s, "k", func(f *dC) int { return f.K }),
	} {
		if err != nil {
			t.Fatalf("AddIndex: %v", err)
		}
	}
}

// twin drives the incremental engine and the naive reference engine in
// lockstep and compares their observable state.
type twin struct {
	t    *testing.T
	seed int64
	inc  *Session
	ref  *Session
	// firing logs captured by the sessions' observers.
	incLog, refLog []string
}

func newTwin(t *testing.T, seed int64) *twin {
	tw := &twin{t: t, seed: seed, inc: NewSession(), ref: NewReferenceSession()}
	registerKIndex(t, tw.inc)
	registerKIndex(t, tw.ref)
	tw.inc.SetFiringObserver(func(rule string, sal int) {
		tw.incLog = append(tw.incLog, fmt.Sprintf("%s/%d", rule, sal))
	})
	tw.ref.SetFiringObserver(func(rule string, sal int) {
		tw.refLog = append(tw.refLog, fmt.Sprintf("%s/%d", rule, sal))
	})
	return tw
}

func (tw *twin) fatalf(format string, args ...any) {
	tw.t.Helper()
	tw.t.Fatalf("seed %d: %s", tw.seed, fmt.Sprintf(format, args...))
}

// factLine renders a session's per-type fact populations in insertion order.
func factLine(s *Session) string {
	line := ""
	for _, ex := range []any{(*dA)(nil), (*dB)(nil), (*dC)(nil)} {
		line += fmt.Sprintf("%T:", ex)
		for _, v := range s.Facts(exemplarOf(ex)) {
			k, val := dKV(v)
			line += fmt.Sprintf("(%d,%d)", k, val)
		}
		line += " "
	}
	return line
}

func exemplarOf(ex any) any {
	switch ex.(type) {
	case *dA:
		return &dA{}
	case *dB:
		return &dB{}
	}
	return &dC{}
}

func (tw *twin) compare(stage string) {
	tw.t.Helper()
	if len(tw.incLog) != len(tw.refLog) {
		tw.fatalf("%s: firing count inc=%d ref=%d\ninc=%v\nref=%v", stage, len(tw.incLog), len(tw.refLog), tw.incLog, tw.refLog)
	}
	for i := range tw.incLog {
		if tw.incLog[i] != tw.refLog[i] {
			tw.fatalf("%s: firing %d inc=%s ref=%s", stage, i, tw.incLog[i], tw.refLog[i])
		}
	}
	if a, b := tw.inc.FactCount(), tw.ref.FactCount(); a != b {
		tw.fatalf("%s: fact count inc=%d ref=%d", stage, a, b)
	}
	if a, b := tw.inc.RefractionSize(), tw.ref.RefractionSize(); a != b {
		tw.fatalf("%s: refraction size inc=%d ref=%d", stage, a, b)
	}
	if a, b := tw.inc.Firings(), tw.ref.Firings(); a != b {
		tw.fatalf("%s: firings inc=%d ref=%d", stage, a, b)
	}
	if a, b := factLine(tw.inc), factLine(tw.ref); a != b {
		tw.fatalf("%s: facts diverge\ninc=%s\nref=%s", stage, a, b)
	}
}

// genRules builds a random rule set shared by both sessions. gates is the
// external state the generated Gate closures read; the driver flips entries
// mid-schedule.
func genRules(rng *rand.Rand, gates []bool) []*Rule {
	n := 1 + rng.Intn(6)
	out := make([]*Rule, 0, n)
	for ri := 0; ri < n; ri++ {
		r := &Rule{
			Name:     fmt.Sprintf("r%d", ri),
			Salience: rng.Intn(3), // small range to force recency ties
			NoLoop:   rng.Intn(5) == 0,
		}
		if rng.Intn(10) < 3 {
			gi := rng.Intn(len(gates))
			r.Gate = func() bool { return gates[gi] }
		}
		np := 1 + rng.Intn(3)
		for pi := 0; pi < np; pi++ {
			typ := rng.Intn(3)
			// First pattern is always positive so the RHS has a binding.
			positive := pi == 0 || rng.Intn(10) < 6
			guardKind := rng.Intn(4) // 0 none, 1 parity, 2 k<c, 3 join on k
			if pi == 0 && guardKind == 3 {
				guardKind = 2 // no earlier binding to join against
			}
			c := rng.Intn(8)
			hint := guardKind == 3 && rng.Intn(2) == 0
			out2 := genPattern(typ, positive, guardKind, c, hint, fmt.Sprintf("x%d", pi))
			r.When = append(r.When, out2)
		}
		r.Then = genAction(rng, r.When[0].Name)
		out = append(out, r)
	}
	// Every schedule also carries a positive pattern after a negated one
	// ([pos, not, pos]): the shape whose later candidates the old join
	// evaluated with a stale binding.
	typ, c := rng.Intn(3), 1+rng.Intn(7)
	out = append(out, &Rule{
		Name:     "pos-not-pos",
		Salience: rng.Intn(3),
		When: []Pattern{
			genPattern(typ, true, 2, c, false, "x0"),
			genPattern(typ+1, false, 3, 0, rng.Intn(2) == 0, ""),
			genPattern(typ+2, true, 3, 0, rng.Intn(2) == 0, "x2"),
		},
		Then: genAction(rng, "x2"),
	})
	return out
}

// genPattern builds one pattern, negated unless positive. guardKind 3 joins
// on K against binding x0.
func genPattern(typ int, positive bool, guardKind, c int, hint bool, name string) Pattern {
	guard := func(b Bindings, v any) bool {
		k, val := dKV(v)
		switch guardKind {
		case 1:
			return val%2 == c%2
		case 2:
			return k < c
		case 3:
			k0, _ := dKV(b.Get("x0"))
			return k == k0
		}
		return true
	}
	if guardKind == 0 {
		guard = nil
	}
	lookup := func(b Bindings) int {
		k0, _ := dKV(b.Get("x0"))
		return k0
	}
	mk := func(p Pattern) Pattern {
		if hint {
			return hinted(p, "k", lookup)
		}
		return p
	}
	wrap := func(g func(Bindings, any) bool) func(Bindings, any) bool { return g }
	switch typ % 3 {
	case 0:
		if positive {
			return mk(pat[*dA](name, wrap(guard)))
		}
		return mk(npat[*dA](wrap(guard)))
	case 1:
		if positive {
			return mk(pat[*dB](name, wrap(guard)))
		}
		return mk(npat[*dB](wrap(guard)))
	}
	if positive {
		return mk(pat[*dC](name, wrap(guard)))
	}
	return mk(npat[*dC](wrap(guard)))
}

// pat/npat adapt untyped guards to the typed constructors.
func pat[T any](name string, g func(Bindings, any) bool) Pattern {
	if g == nil {
		return Match[T](name, nil)
	}
	return Match(name, func(b Bindings, v T) bool { return g(b, v) })
}

func npat[T any](g func(Bindings, any) bool) Pattern {
	if g == nil {
		return Not[T](nil)
	}
	return Not(func(b Bindings, v T) bool { return g(b, v) })
}

// genAction builds a deterministic RHS. Every action is a pure function of
// the bound facts and the session it runs against, so the twin sessions
// evolve identically.
func genAction(rng *rand.Rand, bind string) func(*Context) {
	kind := rng.Intn(5)
	insTyp := rng.Intn(3)
	switch kind {
	case 0: // bump the bound fact's value and update (may loop; budget bounds it)
		return func(ctx *Context) {
			f := ctx.Get(bind)
			k, v := dKV(f)
			if v < 24 {
				dSetKV(f, k, v+1)
				ctx.Update(f)
			}
		}
	case 1: // insert a derived fact, bounded so runs terminate
		return func(ctx *Context) {
			if ctx.s.FactCountLocked() < 60 {
				f := ctx.Get(bind)
				k, _ := dKV(f)
				ctx.Insert(dNew(insTyp, (k+1)%8, 0))
			}
		}
	case 2: // retract the triggering fact
		return func(ctx *Context) {
			ctx.Retract(ctx.Get(bind))
		}
	case 3: // rewrite the key (re-buckets the fact in the alpha index)
		return func(ctx *Context) {
			f := ctx.Get(bind)
			k, v := dKV(f)
			if v%3 == 0 {
				dSetKV(f, (k+3)%8, v)
				ctx.Update(f)
			}
		}
	}
	return func(ctx *Context) {} // pure fire
}

// FactCountLocked supports bounded RHS actions in tests (Context actions
// run with the session lock held, so they cannot call FactCount).
func (s *Session) FactCountLocked() int { return len(s.facts) }

// applyOp applies one schedule operation to a single session.
func applyOp(s *Session, op, typ, idx, k, v, budget int) (int, error) {
	switch op {
	case 0: // insert
		s.Insert(dNew(typ, k, v))
	case 1: // update: mutate the idx-th fact of the type, then Update
		facts := s.Facts(exemplarOf(dNew(typ, 0, 0)))
		if len(facts) == 0 {
			return 0, nil
		}
		f := facts[idx%len(facts)]
		dSetKV(f, k, v)
		s.Update(f)
	case 2: // retract the idx-th fact of the type
		facts := s.Facts(exemplarOf(dNew(typ, 0, 0)))
		if len(facts) == 0 {
			return 0, nil
		}
		s.Retract(facts[idx%len(facts)])
	case 3: // fire
		return s.FireAll(budget)
	}
	return 0, nil
}

func runDifferentialSchedule(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gates := []bool{true, false}
	rs := genRules(rng, gates)
	tw := newTwin(t, seed)
	// Both sessions share the same *Rule values: rules are pure data plus
	// closures over bound facts, so sharing is safe and guarantees the two
	// engines match byte-identical rule bases.
	for _, r := range rs {
		if err := tw.inc.AddRule(r); err != nil {
			t.Fatalf("seed %d: inc AddRule: %v", seed, err)
		}
		if err := tw.ref.AddRule(r); err != nil {
			t.Fatalf("seed %d: ref AddRule: %v", seed, err)
		}
	}
	nops := 40 + rng.Intn(40)
	for i := 0; i < nops; i++ {
		op := rng.Intn(6)
		typ, idx, k, v := rng.Intn(3), rng.Intn(16), rng.Intn(8), rng.Intn(16)
		budget := 1 + rng.Intn(30)
		switch op {
		case 4: // flip a gate; both engines must notice without fact churn
			gates[rng.Intn(len(gates))] = !gates[rng.Intn(len(gates))]
			continue
		case 5: // fire with a budget big enough to settle most schedules
			op, budget = 3, 150
		}
		n1, err1 := applyOp(tw.inc, op, typ, idx, k, v, budget)
		n2, err2 := applyOp(tw.ref, op, typ, idx, k, v, budget)
		if n1 != n2 {
			tw.fatalf("op %d: firings inc=%d ref=%d", i, n1, n2)
		}
		if (err1 == nil) != (err2 == nil) || (err1 != nil && !errors.Is(err1, ErrBudgetExhausted)) {
			tw.fatalf("op %d: errors inc=%v ref=%v", i, err1, err2)
		}
		if op == 3 {
			tw.compare(fmt.Sprintf("after op %d", i))
		}
	}
	// Final settle with a generous budget, then a last full comparison.
	n1, err1 := tw.inc.FireAll(300)
	n2, err2 := tw.ref.FireAll(300)
	if n1 != n2 || (err1 == nil) != (err2 == nil) {
		tw.fatalf("settle: inc=(%d,%v) ref=(%d,%v)", n1, err1, n2, err2)
	}
	tw.compare("final")
}

// TestDifferentialSchedules drives both engines through 150 randomized
// seeded schedules (the acceptance bar is 100).
func TestDifferentialSchedules(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		runDifferentialSchedule(t, seed)
	}
}

// TestDifferentialLongSchedule is one deep schedule: more ops than the
// randomized runs, ensuring agenda repair stays correct across many
// FireAll cycles on the same session.
func TestDifferentialLongSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	gates := []bool{true, true}
	rs := genRules(rng, gates)
	tw := newTwin(t, 424242)
	for _, r := range rs {
		tw.inc.MustAddRules(r)
		tw.ref.MustAddRules(r)
	}
	for i := 0; i < 400; i++ {
		op := rng.Intn(4)
		typ, idx, k, v := rng.Intn(3), rng.Intn(16), rng.Intn(8), rng.Intn(16)
		applyOp(tw.inc, op, typ, idx, k, v, 20)
		applyOp(tw.ref, op, typ, idx, k, v, 20)
		if op == 3 {
			tw.compare(fmt.Sprintf("op %d", i))
		}
	}
	tw.compare("final")
}

// TestReferenceSessionSemantics spot-checks that the reference engine is
// usable standalone (Reset included) — it is the oracle, so its own
// plumbing deserves a direct test.
func TestReferenceSessionSemantics(t *testing.T) {
	s := NewReferenceSession()
	fired := 0
	s.MustAddRules(&Rule{
		Name: "count",
		When: []Pattern{Match[*dA]("a", nil)},
		Then: func(ctx *Context) { fired++ },
	})
	s.Insert(&dA{K: 1})
	if n, err := s.FireAll(0); n != 1 || err != nil {
		t.Fatalf("FireAll = %d, %v", n, err)
	}
	s.Reset()
	s.Insert(&dA{K: 2})
	if n, err := s.FireAll(0); n != 1 || err != nil {
		t.Fatalf("after Reset FireAll = %d, %v", n, err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
}
