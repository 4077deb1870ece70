package rules

// FuzzSessionOps decodes an arbitrary byte stream into a schedule of
// session operations and cross-checks the incremental engine against the
// naive reference engine after every firing cycle. Wired into
// `make fuzz-smoke`.
//
// The cost of one input is bounded. Both engines cost tens of
// microseconds a firing, and the fuzzer minimizes each new interesting
// input by running it once per candidate — on the order of the square of
// its length — counting no execs until it is done. With schedules of 256
// ops and fire ops granted DefaultBudget one minimization took up to 9 s,
// and the smoke run stalled at "0/sec". So a schedule is at most
// fuzzMaxOps ops, and its fire ops share fuzzFirings firings; longer
// schedules are the differential harness's (diff_test.go).

import (
	"fmt"
	"testing"
)

const (
	fuzzMaxOps  = 32
	fuzzFirings = 128
)

// fuzzRules is a fixed rule set covering salience ties, NoLoop, gates,
// negation, joins (hinted and unhinted), positive patterns after negated
// ones, and working-memory mutation from the RHS.
func fuzzRules(gate *bool) []*Rule {
	return []*Rule{
		{
			Name:     "join-hinted",
			Salience: 2,
			When: []Pattern{
				Match("x0", func(b Bindings, a *dA) bool { return a.V%2 == 0 }),
				MatchOn("x1", "k", func(b Bindings) int { return b.Get("x0").(*dA).K },
					func(b Bindings, v *dB) bool { return v.K == b.Get("x0").(*dA).K }),
			},
			Then: func(ctx *Context) {
				bf := ctx.Get("x1").(*dB)
				if bf.V < 30 {
					bf.V++
					ctx.Update(bf)
				}
			},
		},
		{
			Name:     "noloop-spawn",
			Salience: 2,
			NoLoop:   true,
			When: []Pattern{
				Match("x0", func(b Bindings, a *dA) bool { return a.K < 6 }),
			},
			Then: func(ctx *Context) {
				if ctx.s.FactCount() < 40 {
					ctx.Insert(&dC{K: ctx.Get("x0").(*dA).K, V: 1})
				}
			},
		},
		{
			Name:     "gated-not",
			Salience: 1,
			Gate:     func() bool { return *gate },
			When: []Pattern{
				Match[*dC]("x0", nil),
				NotOn("k", func(b Bindings) int { return b.Get("x0").(*dC).K },
					func(b Bindings, a *dA) bool { return a.K == b.Get("x0").(*dC).K && a.V > 8 }),
			},
			Then: func(ctx *Context) {
				ctx.Retract(ctx.Get("x0"))
			},
		},
		// A positive pattern after a negated one, unhinted and hinted: every
		// x2 candidate must be bound in turn, not the first one repeatedly.
		{
			Name:     "not-then-join",
			Salience: 1,
			When: []Pattern{
				Match("x0", func(b Bindings, c *dC) bool { return c.V > 0 }),
				NotOn("k", func(b Bindings) int { return b.Get("x0").(*dC).K },
					func(b Bindings, a *dA) bool { return a.K == b.Get("x0").(*dC).K }),
				Match("x2", func(b Bindings, v *dB) bool { return v.K >= b.Get("x0").(*dC).K && v.V%2 == 1 }),
			},
			Then: func(ctx *Context) {
				bf := ctx.Get("x2").(*dB)
				bf.V++
				ctx.Update(bf)
			},
		},
		{
			Name: "not-then-hinted-join",
			When: []Pattern{
				Match[*dA]("x0", nil),
				Not(func(b Bindings, c *dC) bool { return c.K == b.Get("x0").(*dA).K && c.V > 5 }),
				MatchOn("x2", "k", func(b Bindings) int { return b.Get("x0").(*dA).K },
					func(b Bindings, v *dB) bool { return v.K == b.Get("x0").(*dA).K }),
			},
			Then: func(ctx *Context) {},
		},
	}
}

func FuzzSessionOps(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x19, 0x73, 0xe0})
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x60, 0x60, 0x81, 0x45, 0x60})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x60, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxOps {
			data = data[:fuzzMaxOps]
		}
		gate := true
		inc, ref := NewSession(), NewReferenceSession()
		var incLog, refLog []string
		inc.SetFiringObserver(func(r string, s int) { incLog = append(incLog, fmt.Sprintf("%s/%d", r, s)) })
		ref.SetFiringObserver(func(r string, s int) { refLog = append(refLog, fmt.Sprintf("%s/%d", r, s)) })
		for _, s := range []*Session{inc, ref} {
			registerKIndex(t, s)
			s.MustAddRules(fuzzRules(&gate)...)
		}
		check := func(stage int) {
			if len(incLog) != len(refLog) {
				t.Fatalf("byte %d: firing count inc=%d ref=%d", stage, len(incLog), len(refLog))
			}
			for i := range incLog {
				if incLog[i] != refLog[i] {
					t.Fatalf("byte %d: firing %d inc=%s ref=%s", stage, i, incLog[i], refLog[i])
				}
			}
			if a, b := factLine(inc), factLine(ref); a != b {
				t.Fatalf("byte %d: facts diverge\ninc=%s\nref=%s", stage, a, b)
			}
			if a, b := inc.RefractionSize(), ref.RefractionSize(); a != b {
				t.Fatalf("byte %d: refraction inc=%d ref=%d", stage, a, b)
			}
		}
		left := fuzzFirings
		// fire runs both engines on at most budget of the firings left; a
		// spent allowance fires nothing (FireAll(0) would grant
		// DefaultBudget).
		fire := func(stage, budget int) {
			if budget = min(budget, left); budget > 0 {
				n1, e1 := inc.FireAll(budget)
				n2, e2 := ref.FireAll(budget)
				if n1 != n2 || (e1 == nil) != (e2 == nil) {
					t.Fatalf("byte %d: fire inc=(%d,%v) ref=(%d,%v)", stage, n1, e1, n2, e2)
				}
				left -= n1
			}
			check(stage)
		}
		for i := 0; i < len(data); i++ {
			b := data[i]
			op := int(b >> 5)    // top 3 bits select the operation
			arg := int(b & 0x1f) // low 5 bits parameterize it
			typ := arg % 3
			k, v := arg%8, arg%16
			switch op {
			case 0, 1: // insert (two opcodes: inserts should dominate)
				inc.Insert(dNew(typ, k, v))
				ref.Insert(dNew(typ, k, v))
			case 2: // update
				applyOp(inc, 1, typ, arg, k, v+1, 0)
				applyOp(ref, 1, typ, arg, k, v+1, 0)
			case 3: // retract
				applyOp(inc, 2, typ, arg, 0, 0, 0)
				applyOp(ref, 2, typ, arg, 0, 0, 0)
			case 4: // flip the gate
				gate = !gate
			case 5: // fire with a small budget (exercises exhaustion)
				fire(i, 1+arg)
			case 6: // fire with what is left of the input's firings
				fire(i, fuzzFirings)
			case 7: // reset both sessions
				inc.Reset()
				ref.Reset()
			}
		}
		fire(len(data), 200)
	})
}
