package rules

import (
	"errors"
	"testing"
)

// TestThreeWayJoin exercises a join across three fact types with guards
// referencing earlier bindings.
func TestThreeWayJoin(t *testing.T) {
	type order struct{ id, class int }
	type quota struct{ class, max int }
	type approval struct{ orderID int }
	s := NewSession()
	var approved []int
	s.MustAddRules(&Rule{
		Name: "approve-within-quota",
		When: []Pattern{
			Match[*order]("o", nil),
			Match("q", func(b Bindings, q *quota) bool {
				return q.class == b.Get("o").(*order).class
			}),
			Not(func(b Bindings, a *approval) bool {
				return a.orderID == b.Get("o").(*order).id
			}),
		},
		Then: func(ctx *Context) {
			o := ctx.Get("o").(*order)
			q := ctx.Get("q").(*quota)
			if o.id <= q.max {
				approved = append(approved, o.id)
				ctx.Insert(&approval{orderID: o.id})
			}
		},
	})
	s.Insert(&quota{class: 1, max: 10})
	s.Insert(&quota{class: 2, max: 0})
	s.Insert(&order{id: 5, class: 1})
	s.Insert(&order{id: 7, class: 2})
	s.Insert(&order{id: 3, class: 3}) // no quota: never matches
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if len(approved) != 1 || approved[0] != 5 {
		t.Fatalf("approved = %v", approved)
	}
}

// TestOldestFirstConflictResolution checks that, with equal salience and no
// updates, activations fire in fact insertion order.
func TestOldestFirstConflictResolution(t *testing.T) {
	s := NewSession()
	var order []string
	s.MustAddRules(&Rule{
		Name: "watch",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) { order = append(order, ctx.Get("it").(*item).name) },
	})
	s.Insert(&item{name: "first"})
	s.Insert(&item{name: "second"})
	s.Insert(&item{name: "third"})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want FIFO %v", order, want)
	}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want FIFO %v", order, want)
		}
	}
}

func TestFireAllBudgetExact(t *testing.T) {
	s := NewSession()
	s.MustAddRules(&Rule{
		Name: "one-per-fact",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) {},
	})
	for i := 0; i < 5; i++ {
		s.Insert(&item{qty: i})
	}
	// Budget exactly equals the workload: no error.
	n, err := s.FireAll(5)
	if err != nil || n != 5 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// Budget one short: error.
	s.Reset()
	for i := 0; i < 5; i++ {
		s.Insert(&item{qty: i})
	}
	if _, err := s.FireAll(4); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestRHSRetractOfJoinPartner(t *testing.T) {
	// A rule that consumes both facts of its tuple: each flag pairs with
	// exactly one item, both retracted on firing.
	s := NewSession()
	pairs := 0
	s.MustAddRules(&Rule{
		Name: "consume-pair",
		When: []Pattern{
			Match[*flag]("f", nil),
			Match[*item]("it", nil),
		},
		Then: func(ctx *Context) {
			pairs++
			ctx.Retract(ctx.Get("f"))
			ctx.Retract(ctx.Get("it"))
		},
	})
	for i := 0; i < 3; i++ {
		s.Insert(&flag{})
		s.Insert(&item{qty: i})
	}
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	if pairs != 3 {
		t.Fatalf("pairs = %d, want 3", pairs)
	}
	if s.FactCount() != 0 {
		t.Fatalf("facts left = %d", s.FactCount())
	}
}

func TestInsertDuringIterationSafe(t *testing.T) {
	// RHS inserts new facts of the same type the rule matches, bounded by
	// a counter to avoid infinite growth; engine must terminate cleanly.
	s := NewSession()
	total := 0
	s.MustAddRules(&Rule{
		Name: "spawn-two-generations",
		When: []Pattern{Match("it", func(b Bindings, v *item) bool { return v.qty < 2 })},
		Then: func(ctx *Context) {
			total++
			v := ctx.Get("it").(*item)
			ctx.Insert(&item{qty: v.qty + 1})
		},
	})
	s.Insert(&item{qty: 0})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	// Generation 0 spawns 1, 1 spawns 2 (matched, spawns 3 via guard<2
	// false for 2)... firings: qty0 and qty1 match => 2 firings.
	if total != 2 {
		t.Fatalf("firings = %d, want 2", total)
	}
	if s.FactCount() != 3 {
		t.Fatalf("facts = %d, want 3", s.FactCount())
	}
}

func TestFactsOfReturnsInsertionOrder(t *testing.T) {
	s := NewSession()
	for i := 0; i < 5; i++ {
		s.Insert(&item{qty: i})
	}
	got := FactsOf[*item](s)
	for i, it := range got {
		if it.qty != i {
			t.Fatalf("order broken: %v", got)
		}
	}
	// Retraction preserves relative order of the rest.
	s.Retract(got[2])
	rest := FactsOf[*item](s)
	want := []int{0, 1, 3, 4}
	for i, it := range rest {
		if it.qty != want[i] {
			t.Fatalf("after retract: %v", rest)
		}
	}
}

// TestQueryAllocations pins what the extent queries cost over a few
// hundred resident facts (with tombstones): First and CountOf walk the
// alpha memory in place and allocate nothing, and FactsOf allocates only
// the slice it returns. The policy layer calls First on every lease
// renewal and bundle activation.
func TestQueryAllocations(t *testing.T) {
	s := NewSession()
	if err := AddIndexOf(s, "even", func(it *item) bool { return it.qty%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	var facts []*item
	for i := 0; i < 300; i++ {
		it := &item{qty: i}
		facts = append(facts, it)
		s.Insert(it)
	}
	for i := 0; i < 300; i += 7 {
		s.Retract(facts[i])
	}
	last := func(it *item) bool { return it.qty == 299 }
	even := func(it *item) bool { return it.qty%2 == 0 }
	var found bool
	var n, keyed, live int
	for _, q := range []struct {
		name string
		run  func()
		want float64
	}{
		{"First", func() { _, found = First(s, last) }, 0},
		{"CountOf", func() { n = CountOf(s, even) }, 0},
		{"CountOf/nil", func() { live = CountOf[*item](s, nil) }, 0},
		{"CountByKey", func() { keyed = CountByKey[*item](s, "even", true) }, 0},
		{"FactsOf", func() { live = len(FactsOf[*item](s)) }, 1},
	} {
		if got := testing.AllocsPerRun(50, q.run); got != q.want {
			t.Errorf("%s: %v allocs/op, want %v", q.name, got, q.want)
		}
	}
	if !found || n != 128 || keyed != 128 || live != 257 {
		t.Fatalf("First found %v, CountOf(even) = %d, CountByKey(even) = %d, live = %d; want true, 128, 128, 257",
			found, n, keyed, live)
	}
}

func TestMatchPanicsOnInterfaceType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for interface type parameter")
		}
	}()
	_ = Match[any]("x", nil)
}
