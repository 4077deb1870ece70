package rules

import (
	"errors"
	"reflect"
	"testing"
)

type counter struct{ n int }

type item struct {
	name string
	qty  int
	done bool
}

type threshold struct{ max int }

func TestSingleRuleFiresOncePerFact(t *testing.T) {
	s := NewSession()
	fired := 0
	s.MustAddRules(&Rule{
		Name: "count-items",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) { fired++ },
	})
	s.Insert(&item{name: "a"})
	s.Insert(&item{name: "b"})
	s.Insert(&item{name: "c"})
	n, err := s.FireAll(0)
	if err != nil {
		t.Fatalf("FireAll: %v", err)
	}
	if n != 3 || fired != 3 {
		t.Fatalf("firings = %d (cb %d), want 3", n, fired)
	}
	// Firing again without changes does nothing (refraction).
	n, err = s.FireAll(0)
	if err != nil || n != 0 {
		t.Fatalf("second FireAll = %d, %v; want 0, nil", n, err)
	}
}

func TestGuardFiltersFacts(t *testing.T) {
	s := NewSession()
	var matched []string
	s.MustAddRules(&Rule{
		Name: "big-items",
		When: []Pattern{Match("it", func(b Bindings, v *item) bool { return v.qty > 10 })},
		Then: func(ctx *Context) { matched = append(matched, ctx.Get("it").(*item).name) },
	})
	s.Insert(&item{name: "small", qty: 5})
	s.Insert(&item{name: "big", qty: 50})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if len(matched) != 1 || matched[0] != "big" {
		t.Fatalf("matched = %v", matched)
	}
}

func TestJoinAcrossTypes(t *testing.T) {
	// Fire for items whose qty exceeds the (single) threshold fact.
	s := NewSession()
	var over []string
	s.MustAddRules(&Rule{
		Name: "over-threshold",
		When: []Pattern{
			Match[*threshold]("th", nil),
			Match("it", func(b Bindings, v *item) bool {
				return v.qty > b.Get("th").(*threshold).max
			}),
		},
		Then: func(ctx *Context) { over = append(over, ctx.Get("it").(*item).name) },
	})
	s.Insert(&threshold{max: 10})
	s.Insert(&item{name: "a", qty: 5})
	s.Insert(&item{name: "b", qty: 15})
	s.Insert(&item{name: "c", qty: 20})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if len(over) != 2 {
		t.Fatalf("over = %v", over)
	}
}

func TestSalienceOrdersFirings(t *testing.T) {
	s := NewSession()
	var order []string
	mk := func(name string, sal int) *Rule {
		return &Rule{
			Name:     name,
			Salience: sal,
			When:     []Pattern{Match[*counter]("c", nil)},
			Then:     func(ctx *Context) { order = append(order, name) },
		}
	}
	// Declared low-salience first to prove salience, not order, wins.
	s.MustAddRules(mk("low", -5), mk("high", 10), mk("mid", 0))
	s.Insert(&counter{})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRHSInsertTriggersOtherRules(t *testing.T) {
	s := NewSession()
	gotItem := false
	s.MustAddRules(
		&Rule{
			Name: "counter-spawns-item",
			When: []Pattern{Match[*counter]("c", nil)},
			Then: func(ctx *Context) { ctx.Insert(&item{name: "spawned"}) },
		},
		&Rule{
			Name: "sees-item",
			When: []Pattern{Match[*item]("it", nil)},
			Then: func(ctx *Context) { gotItem = true },
		},
	)
	s.Insert(&counter{})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if !gotItem {
		t.Fatal("chained rule did not fire")
	}
}

func TestRetractStopsMatching(t *testing.T) {
	s := NewSession()
	fired := 0
	s.MustAddRules(
		&Rule{
			Name:     "remove-done",
			Salience: 10,
			When:     []Pattern{Match("it", func(b Bindings, v *item) bool { return v.done })},
			Then:     func(ctx *Context) { ctx.Retract(ctx.Get("it")) },
		},
		&Rule{
			Name: "count-remaining",
			When: []Pattern{Match[*item]("it", nil)},
			Then: func(ctx *Context) { fired++ },
		},
	)
	s.Insert(&item{name: "a", done: true})
	s.Insert(&item{name: "b"})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("count-remaining fired %d times, want 1", fired)
	}
	if s.FactCount() != 1 {
		t.Fatalf("FactCount = %d, want 1", s.FactCount())
	}
}

func TestUpdateReactivatesRule(t *testing.T) {
	s := NewSession()
	it := &item{name: "a", qty: 1}
	seenQty := []int{}
	s.MustAddRules(&Rule{
		Name: "watch",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) { seenQty = append(seenQty, ctx.Get("it").(*item).qty) },
	})
	s.Insert(it)
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	it.qty = 2
	s.Update(it)
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if len(seenQty) != 2 || seenQty[0] != 1 || seenQty[1] != 2 {
		t.Fatalf("seenQty = %v", seenQty)
	}
}

func TestNoLoopPreventsSelfRetrigger(t *testing.T) {
	s := NewSession()
	it := &item{name: "a"}
	fired := 0
	s.MustAddRules(&Rule{
		Name:   "increment",
		NoLoop: true,
		When:   []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) {
			fired++
			v := ctx.Get("it").(*item)
			v.qty++
			ctx.Update(v) // would loop forever without NoLoop
		},
	})
	s.Insert(it)
	n, err := s.FireAll(0)
	if err != nil {
		t.Fatalf("FireAll: %v", err)
	}
	if n != 1 || fired != 1 || it.qty != 1 {
		t.Fatalf("n=%d fired=%d qty=%d, want 1,1,1", n, fired, it.qty)
	}
}

func TestBudgetExhaustedOnLoop(t *testing.T) {
	s := NewSession()
	it := &item{name: "a"}
	s.MustAddRules(&Rule{
		Name: "looper",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) {
			v := ctx.Get("it").(*item)
			v.qty++
			ctx.Update(v)
		},
	})
	s.Insert(it)
	_, err := s.FireAll(25)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

func TestInsertIdempotentByIdentity(t *testing.T) {
	s := NewSession()
	it := &item{name: "a"}
	h1 := s.Insert(it)
	h2 := s.Insert(it)
	if h1 != h2 {
		t.Fatalf("handles differ: %d vs %d", h1, h2)
	}
	if s.FactCount() != 1 {
		t.Fatalf("FactCount = %d", s.FactCount())
	}
}

func TestRetractUnknownIsNoop(t *testing.T) {
	s := NewSession()
	s.Retract(&item{name: "ghost"})
	s.Update(&item{name: "ghost"})
	if s.FactCount() != 0 {
		t.Fatal("phantom fact appeared")
	}
}

func TestContextQueries(t *testing.T) {
	s := NewSession()
	var total int
	s.MustAddRules(&Rule{
		Name:   "sum-via-ctx",
		NoLoop: true,
		When:   []Pattern{Match[*counter]("c", nil)},
		Then: func(ctx *Context) {
			for _, it := range CtxFactsOf[*item](ctx) {
				total += it.qty
			}
			if _, ok := CtxFirst(ctx, func(v *item) bool { return v.qty == 2 }); !ok {
				t.Error("CtxFirst missed qty==2")
			}
			if n := CtxCountOf[*item](ctx, nil); n != 3 {
				t.Errorf("CtxCountOf = %d", n)
			}
		},
	})
	s.Insert(&item{qty: 1})
	s.Insert(&item{qty: 2})
	s.Insert(&item{qty: 3})
	s.Insert(&counter{})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("total = %d", total)
	}
}

func TestSessionQueries(t *testing.T) {
	s := NewSession()
	s.Insert(&item{name: "x", qty: 1})
	s.Insert(&item{name: "y", qty: 2})
	if got := len(FactsOf[*item](s)); got != 2 {
		t.Fatalf("FactsOf = %d", got)
	}
	if v, ok := First(s, func(it *item) bool { return it.qty == 2 }); !ok || v.name != "y" {
		t.Fatalf("First = %v, %v", v, ok)
	}
	if _, ok := First(s, func(it *item) bool { return it.qty == 99 }); ok {
		t.Fatal("First found nonexistent fact")
	}
	if n := CountOf(s, func(it *item) bool { return it.qty > 0 }); n != 2 {
		t.Fatalf("CountOf = %d", n)
	}
}

func TestRuleValidation(t *testing.T) {
	s := NewSession()
	cases := []*Rule{
		{Name: "", When: []Pattern{Match[*item]("i", nil)}, Then: func(*Context) {}},
		{Name: "no-patterns", Then: func(*Context) {}},
		{Name: "no-action", When: []Pattern{Match[*item]("i", nil)}},
		{Name: "dup-binding", When: []Pattern{Match[*item]("i", nil), Match[*item]("i", nil)}, Then: func(*Context) {}},
		{Name: "anon-pattern", When: []Pattern{Match[*item]("", nil)}, Then: func(*Context) {}},
	}
	for _, r := range cases {
		if err := s.AddRule(r); err == nil {
			t.Errorf("rule %q: want validation error", r.Name)
		}
	}
	ok := &Rule{Name: "ok", When: []Pattern{Match[*item]("i", nil)}, Then: func(*Context) {}}
	if err := s.AddRule(ok); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	if err := s.AddRule(&Rule{Name: "ok", When: ok.When, Then: ok.Then}); err == nil {
		t.Error("duplicate rule name accepted")
	}
}

func TestReset(t *testing.T) {
	s := NewSession()
	fired := 0
	s.MustAddRules(&Rule{
		Name: "r",
		When: []Pattern{Match[*item]("i", nil)},
		Then: func(ctx *Context) { fired++ },
	})
	s.Insert(&item{name: "a"})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.FactCount() != 0 {
		t.Fatal("facts survived Reset")
	}
	s.Insert(&item{name: "a"})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (refraction must reset)", fired)
	}
}

func TestJoinExcludesSameFactTwice(t *testing.T) {
	// A self-join over the same type must bind two distinct facts.
	s := NewSession()
	pairs := 0
	s.MustAddRules(&Rule{
		Name: "pair",
		When: []Pattern{
			Match[*item]("a", nil),
			Match[*item]("b", nil),
		},
		Then: func(ctx *Context) {
			if ctx.Get("a") == ctx.Get("b") {
				t.Error("same fact bound twice in one tuple")
			}
			pairs++
		},
	})
	s.Insert(&item{name: "x"})
	s.Insert(&item{name: "y"})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if pairs != 2 { // (x,y) and (y,x)
		t.Fatalf("pairs = %d, want 2", pairs)
	}
}

func TestRecencyConflictResolution(t *testing.T) {
	// With equal salience, the activation over the least recently touched
	// fact fires first (FIFO): insertion order, except that an update
	// moves a fact to the back.
	s := NewSession()
	var order []string
	s.MustAddRules(&Rule{
		Name: "watch",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) { order = append(order, ctx.Get("it").(*item).name) },
	})
	first := &item{name: "first"}
	s.Insert(first)
	s.Insert(&item{name: "second"})
	s.Insert(&item{name: "third"})
	s.Update(first)
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if want := []string{"second", "third", "first"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want FIFO %v", order, want)
	}
}

func TestGateSelectsRules(t *testing.T) {
	s := NewSession()
	active := "a"
	var fired []string
	mk := func(name, gate string) *Rule {
		return &Rule{
			Name: name,
			Gate: func() bool { return active == gate },
			When: []Pattern{Match[*item]("it", nil)},
			Then: func(ctx *Context) { fired = append(fired, name) },
		}
	}
	s.MustAddRules(mk("rule-a", "a"), mk("rule-b", "b"))
	s.Insert(&item{name: "x"})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "rule-a" {
		t.Fatalf("fired = %v, want [rule-a]", fired)
	}
	// Flipping the gate re-enables the other rule on the same fact: gating
	// never consumed a refraction entry for rule-b.
	active = "b"
	fired = nil
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "rule-b" {
		t.Fatalf("fired = %v, want [rule-b]", fired)
	}
}
