package rules

import "testing"

// RefractionSize counts every retained refraction key, dead ones awaiting
// the next sweep included, so these tests bound what a long-lived session
// (the Policy Memory pattern) actually holds, not what it could still match.

// TestRefractionGarbageCollected: refraction state for retracted facts is
// reclaimed however many rounds the session lives through.
func TestRefractionGarbageCollected(t *testing.T) {
	s := NewSession()
	s.MustAddRules(&Rule{
		Name: "touch",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) {},
	})
	for round := 0; round < 1000; round++ {
		it := &item{qty: round}
		s.Insert(it)
		if _, err := s.FireAll(0); err != nil {
			t.Fatal(err)
		}
		s.Retract(it)
	}
	if got := s.RefractionSize(); got > minSweep {
		t.Fatalf("refraction entries = %d after all facts retracted, want <= %d", got, minSweep)
	}
	if s.Firings() != 1000 {
		t.Fatalf("firings = %d", s.Firings())
	}
}

// TestRefractionBoundedWithLongLivedFact is the regression test for the
// leak the per-fact key lists had: a tuple that joins a transient fact to a
// long-lived one (a transfer to its pair's stream ledger) used to leave one
// key behind on the long-lived fact per firing, forever.
func TestRefractionBoundedWithLongLivedFact(t *testing.T) {
	s := NewSession()
	s.MustAddRules(&Rule{
		Name: "join-ledger",
		When: []Pattern{
			Match[*item]("it", nil),
			Match[*threshold]("th", nil),
		},
		Then: func(ctx *Context) {},
	})
	s.Insert(&threshold{max: 1})
	for round := 0; round < 1000; round++ {
		it := &item{qty: round}
		s.Insert(it)
		if n, err := s.FireAll(0); err != nil || n != 1 {
			t.Fatalf("round %d: FireAll = %d, %v", round, n, err)
		}
		s.Retract(it)
	}
	if got := s.RefractionSize(); got > minSweep {
		t.Fatalf("refraction entries = %d with one live fact, want <= %d", got, minSweep)
	}
}

// TestRefractionDropsSupersededKeys: an updated fact re-arms its rule under
// a new key; the keys of its earlier recency states can never match again
// and must not accumulate either.
func TestRefractionDropsSupersededKeys(t *testing.T) {
	s := NewSession()
	s.MustAddRules(&Rule{
		Name: "touch",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) {},
	})
	it := &item{}
	s.Insert(it)
	for round := 0; round < 1000; round++ {
		if n, err := s.FireAll(0); err != nil || n != 1 {
			t.Fatalf("round %d: FireAll = %d, %v", round, n, err)
		}
		s.Update(it)
	}
	if got := s.RefractionSize(); got > minSweep {
		t.Fatalf("refraction entries = %d for one live fact, want <= %d", got, minSweep)
	}
}

func TestRefractionBoundedByLiveFacts(t *testing.T) {
	s := NewSession()
	s.MustAddRules(&Rule{
		Name: "pairwise",
		When: []Pattern{
			Match[*item]("a", nil),
			Match[*item]("b", nil),
		},
		Then: func(ctx *Context) {},
	})
	var live []*item
	for round := 0; round < 200; round++ {
		it := &item{qty: round}
		live = append(live, it)
		s.Insert(it)
		if len(live) > 4 {
			s.Retract(live[0])
			live = live[1:]
		}
		if _, err := s.FireAll(0); err != nil {
			t.Fatal(err)
		}
	}
	// With at most 4 live facts, pairwise refraction is at most 4x3 live
	// keys; the 200-round history (8 new keys a round) must not have
	// accumulated past the sweep bound.
	if got := s.RefractionSize(); got > minSweep {
		t.Fatalf("refraction entries = %d, want <= %d", got, minSweep)
	}
}

func TestFiringsAcrossReset(t *testing.T) {
	s := NewSession()
	s.MustAddRules(&Rule{
		Name: "touch",
		When: []Pattern{Match[*item]("it", nil)},
		Then: func(ctx *Context) {},
	})
	s.Insert(&item{})
	if _, err := s.FireAll(0); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	// Lifetime firing counter survives Reset (it is a session statistic,
	// not working-memory state).
	if s.Firings() != 1 {
		t.Fatalf("firings = %d", s.Firings())
	}
	if s.RefractionSize() != 0 {
		t.Fatal("refraction survived Reset")
	}
}
