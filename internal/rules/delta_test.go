package rules

// Targeted tests of the incremental matcher's delta repair: each scenario
// drives the incremental engine and the naive reference engine through the
// same script, compares their firing logs after every cycle, and checks the
// hand-computed expectation as well — the oracle has its own join, so a bug
// in one of the two shows up as a divergence, and a bug in both as a wrong
// count.

import (
	"fmt"
	"reflect"
	"testing"
)

// script runs one scenario on both engines. Facts are mutated in place, so
// each engine gets its own copy of every named fact.
type script struct {
	t        *testing.T
	sessions [2]*Session // incremental, reference
	logs     [2][]string
	facts    [2]map[string]any
}

// newScript builds both sessions with the "k" indexes and the rules mk
// returns; fire is the action to install on rules that only need logging.
func newScript(t *testing.T, mk func(fire func(*Context)) []*Rule) *script {
	t.Helper()
	sc := &script{t: t, sessions: [2]*Session{NewSession(), NewReferenceSession()}}
	for i, s := range sc.sessions {
		i := i
		registerKIndex(t, s)
		sc.facts[i] = map[string]any{}
		s.MustAddRules(mk(func(ctx *Context) {
			line := ctx.Rule()
			for _, name := range []string{"x0", "x1", "x2"} {
				if v := ctx.Get(name); v != nil {
					k, val := dKV(v)
					line += fmt.Sprintf(" %s=%T(%d,%d)", name, v, k, val)
				}
			}
			sc.logs[i] = append(sc.logs[i], line)
		})...)
	}
	return sc
}

func (sc *script) insert(name string, typ, k, v int) {
	for i, s := range sc.sessions {
		f := dNew(typ, k, v)
		sc.facts[i][name] = f
		s.Insert(f)
	}
}

func (sc *script) update(name string, k, v int) {
	for i, s := range sc.sessions {
		f := sc.facts[i][name]
		dSetKV(f, k, v)
		s.Update(f)
	}
}

func (sc *script) retract(name string) {
	for i, s := range sc.sessions {
		s.Retract(sc.facts[i][name])
	}
}

func (sc *script) each(f func(s *Session)) {
	for _, s := range sc.sessions {
		f(s)
	}
}

// fire runs both engines to quiescence, requires identical logs, and
// requires exactly want new firings.
func (sc *script) fire(stage string, want int) []string {
	sc.t.Helper()
	before := len(sc.logs[0])
	for _, s := range sc.sessions {
		if _, err := s.FireAll(0); err != nil {
			sc.t.Fatalf("%s: %v", stage, err)
		}
	}
	if !reflect.DeepEqual(sc.logs[0], sc.logs[1]) {
		sc.t.Fatalf("%s: engines diverge\ninc=%q\nref=%q", stage, sc.logs[0], sc.logs[1])
	}
	fired := sc.logs[0][before:]
	if len(fired) != want {
		sc.t.Fatalf("%s: %d firings, want %d: %q", stage, len(fired), want, fired)
	}
	return fired
}

func joinOnK(name string, typ int) Pattern {
	lookup := func(b Bindings) int { k, _ := dKV(b.Get("x0")); return k }
	guard := func(b Bindings, v any) bool {
		k, _ := dKV(v)
		k0, _ := dKV(b.Get("x0"))
		return k == k0
	}
	switch typ {
	case 0:
		return hinted(pat[*dA](name, guard), "k", lookup)
	case 1:
		return hinted(pat[*dB](name, guard), "k", lookup)
	}
	return hinted(pat[*dC](name, guard), "k", lookup)
}

// TestPositiveAfterQuantifiedRebinds is the regression test for stale
// bindings: a positive pattern after a negated one must bind each of its
// candidates in turn. The old join truncated the tuple to the pattern index
// instead of the binding count, so every candidate after the first was
// evaluated (and fired) with the first still bound: one firing, not three.
func TestPositiveAfterQuantifiedRebinds(t *testing.T) {
	t.Run("pos-not-pos", func(t *testing.T) {
		sc := newScript(t, func(fire func(*Context)) []*Rule {
			return []*Rule{{
				Name: "r",
				When: []Pattern{
					Match[*dA]("x0", nil),
					Not(func(b Bindings, v *dB) bool { return v.K == b.Get("x0").(*dA).K }),
					// The guard reads its own candidate through the
					// bindings, as shipped guards read earlier ones.
					Match("x1", func(b Bindings, v *dC) bool { return b.Get("x1") == any(v) && v.V > 0 }),
				},
				Then: fire,
			}}
		})
		sc.insert("a", 0, 1, 0)
		sc.insert("c1", 2, 5, 1)
		sc.insert("c2", 2, 6, 2)
		sc.insert("c3", 2, 7, 3)
		sc.insert("c0", 2, 8, 0) // fails the guard
		got := sc.fire("three candidates", 3)
		want := []string{ // FIFO: least recent candidate first
			"r x0=*rules.dA(1,0) x1=*rules.dC(5,1)",
			"r x0=*rules.dA(1,0) x1=*rules.dC(6,2)",
			"r x0=*rules.dA(1,0) x1=*rules.dC(7,3)",
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fired %q, want %q", got, want)
		}
	})
}

// TestDeltaUpdateMovesBetweenBuckets: re-keying a fact dirties the seeds
// that probed its old key and those that probed its new one.
func TestDeltaUpdateMovesBetweenBuckets(t *testing.T) {
	sc := newScript(t, func(fire func(*Context)) []*Rule {
		return []*Rule{{Name: "join", When: []Pattern{Match[*dA]("x0", nil), joinOnK("x1", 1)}, Then: fire}}
	})
	sc.insert("a1", 0, 1, 0)
	sc.insert("a3", 0, 3, 0)
	sc.insert("b", 1, 2, 0)
	sc.fire("no partner", 0)
	sc.update("b", 1, 0)
	sc.fire("b moved to a1's key", 1)
	sc.update("b", 3, 0)
	sc.fire("b moved to a3's key", 1)
	sc.update("b", 3, 1) // same bucket, new recency: the tuple re-arms
	sc.fire("b updated in place", 1)
	sc.update("b", 4, 0)
	sc.fire("b moved away", 0)
}

// TestDeltaRetractBoundDeep: retracting a fact bound at the third position
// withdraws the tuple; a replacement restores it.
func TestDeltaRetractBoundDeep(t *testing.T) {
	sc := newScript(t, func(fire func(*Context)) []*Rule {
		return []*Rule{{
			Name: "three-way",
			When: []Pattern{Match[*dA]("x0", nil), joinOnK("x1", 1), joinOnK("x2", 2)},
			Then: fire,
		}}
	})
	sc.insert("a", 0, 1, 0)
	sc.insert("b", 1, 1, 0)
	sc.insert("c", 2, 1, 0)
	// One firing lets the agenda hold the tuple before the retraction.
	sc.each(func(s *Session) { s.pickForTest() })
	sc.retract("c")
	sc.fire("deep fact retracted before firing", 0)
	sc.insert("c2", 2, 1, 7)
	sc.fire("replacement", 1)
	sc.retract("b")
	sc.insert("b2", 1, 1, 0)
	sc.fire("middle fact replaced", 1)
}

// TestDeltaNotFlipsBothWays: a negated pattern blocks when a matching fact
// arrives, and unblocks when it is updated out of the guard or retracted.
func TestDeltaNotFlipsBothWays(t *testing.T) {
	sc := newScript(t, func(fire func(*Context)) []*Rule {
		return []*Rule{{
			Name: "unblocked",
			When: []Pattern{
				Match[*dA]("x0", nil),
				hinted(Not(func(b Bindings, v *dB) bool { return v.K == b.Get("x0").(*dA).K && v.V > 8 }),
					"k", func(b Bindings) int { return b.Get("x0").(*dA).K }),
			},
			Then: fire,
		}}
	})
	sc.insert("a", 0, 1, 0)
	sc.fire("nothing blocks", 1)
	sc.insert("b", 1, 1, 9)
	sc.update("a", 1, 1) // re-arm a; b now blocks it
	sc.fire("blocked", 0)
	sc.update("b", 1, 0) // still in the bucket, no longer passes the guard
	sc.fire("unblocked by update", 1)
	sc.update("b", 1, 9)
	sc.update("a", 1, 2)
	sc.fire("blocked again", 0)
	sc.retract("b")
	sc.fire("unblocked by retract", 1)
}

// TestDeltaGateOffOn: a gate that opens re-enumerates the rule's seeds,
// including facts that arrived while it was closed; refraction survives.
func TestDeltaGateOffOn(t *testing.T) {
	open := false
	sc := newScript(t, func(fire func(*Context)) []*Rule {
		return []*Rule{{
			Name: "gated",
			Gate: func() bool { return open },
			When: []Pattern{Match[*dA]("x0", nil), joinOnK("x1", 1)},
			Then: fire,
		}}
	})
	sc.insert("a", 0, 1, 0)
	sc.insert("b", 1, 1, 0)
	sc.fire("closed", 0)
	open = true
	sc.fire("opened", 1)
	open = false
	sc.insert("a2", 0, 1, 5)
	sc.fire("closed again", 0)
	open = true
	sc.fire("reopened: only the new tuple", 1)
}

// TestDeltaInvalidate: state outside working memory that a guard reads is
// picked up by Invalidate, which dirties every seed.
func TestDeltaInvalidate(t *testing.T) {
	limit := 3
	sc := newScript(t, func(fire func(*Context)) []*Rule {
		return []*Rule{{
			Name: "under-limit",
			When: []Pattern{Match("x0", func(b Bindings, v *dA) bool { return v.K < limit })},
			Then: fire,
		}}
	})
	sc.insert("a", 0, 5, 0)
	sc.fire("over the limit", 0)
	limit = 10
	sc.each(func(s *Session) { s.Invalidate() })
	sc.fire("limit raised", 1)
}

// TestDeltaUnindexedDeepPattern is the shape bench/probes.go runs: later
// patterns without an index hint, where a change to the scanned type
// dirties every seed of the rule.
func TestDeltaUnindexedDeepPattern(t *testing.T) {
	sc := newScript(t, func(fire func(*Context)) []*Rule {
		return []*Rule{
			{
				Name:     "mark-classes",
				Salience: 10,
				When: []Pattern{
					Match[*dA]("x0", nil),
					Not(func(b Bindings, m *dB) bool { return m.K == b.Get("x0").(*dA).K }),
				},
				Then: func(ctx *Context) {
					fire(ctx)
					ctx.Insert(&dB{K: ctx.Get("x0").(*dA).K})
				},
			},
			{
				Name: "count-pairs",
				When: []Pattern{
					Match[*dB]("x0", nil),
					Match("x1", func(b Bindings, v *dA) bool { return v.K == b.Get("x0").(*dB).K }),
				},
				Then: fire,
			},
		}
	})
	for i := 0; i < 20; i++ {
		sc.insert(fmt.Sprintf("item%d", i), 0, i%5, i)
	}
	sc.fire("five markers, twenty pairs", 25)
	sc.insert("late", 0, 2, 99)
	sc.fire("one more pair", 1)
	sc.update("item0", 1, 0) // class 0 -> 1: pairs with the other marker
	sc.fire("re-classed item", 1)
}

// TestRootlessRule: a rule whose first pattern is negated has no
// first-position facts; it is matched from a single empty seed.
func TestRootlessRule(t *testing.T) {
	sc := newScript(t, func(fire func(*Context)) []*Rule {
		return []*Rule{{
			Name: "bootstrap",
			When: []Pattern{
				hinted(Not(func(b Bindings, v *dA) bool { return v.K == 0 }), "k", func(Bindings) int { return 0 }),
				Not[*dB](nil),
			},
			Then: fire,
		}}
	})
	sc.insert("a", 0, 0, 0)
	sc.fire("blocked by a", 0)
	sc.insert("b", 1, 1, 0)
	sc.fire("blocked by both", 0)
	sc.retract("a")
	sc.fire("still blocked by b", 0)
	sc.retract("b")
	sc.fire("unblocked", 1)
	sc.insert("b2", 1, 1, 0)
	sc.retract("b2")
	sc.fire("fires once per (empty) tuple", 0)
}

// pickForTest repairs the agenda without firing, so a test can mutate
// working memory while activations are pending.
func (s *Session) pickForTest() {
	s.pick()
}

// TestRepairProportionalToChange counts join probes, not time: with 200
// resident tuples, updating one fact re-joins the seeds that depend on it
// and nothing else.
func TestRepairProportionalToChange(t *testing.T) {
	s := NewSession()
	registerKIndex(t, s)
	s.MustAddRules(&Rule{
		Name: "join",
		When: []Pattern{Match[*dA]("x0", nil), joinOnK("x1", 1)},
		Then: func(*Context) {},
	})
	bs := make([]*dB, 200)
	for i := range bs {
		s.Insert(&dA{K: i})
		bs[i] = &dB{K: i}
		s.Insert(bs[i])
	}
	if n, err := s.FireAll(0); err != nil || n != 200 {
		t.Fatalf("FireAll = %d, %v", n, err)
	}
	before := s.Probes()
	bs[7].V++
	s.Update(bs[7])
	if n, err := s.FireAll(0); err != nil || n != 1 {
		t.Fatalf("FireAll after one update = %d, %v", n, err)
	}
	// One seed re-joined (first guard + one probe), twice at most: before
	// the firing and not again after it.
	if got := s.Probes() - before; got > 4 {
		t.Fatalf("one update cost %d probes with 200 resident tuples, want <= 4", got)
	}
}

// TestHintKeyTypeChecked: a lookup whose result type is not the index's key
// type is an AddRule error, not a probe that silently finds nothing.
func TestHintKeyTypeChecked(t *testing.T) {
	s := NewSession()
	registerKIndex(t, s)
	err := s.AddRule(&Rule{
		Name: "bad-hint",
		When: []Pattern{
			Match[*dA]("x0", nil),
			MatchOn("x1", "k", func(b Bindings) string { return "1" }, func(b Bindings, v *dB) bool { return true }),
		},
		Then: func(*Context) {},
	})
	if err == nil {
		t.Fatal("AddRule accepted a string lookup against an int-keyed index")
	}
}
