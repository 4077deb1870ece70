package main

import (
	"context"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/rules"
)

// Isolated probes: one layer driven alone through its public API, so a
// change there has a number that no other layer can move.

// probeAdmit is the mean time of SubmitMutation into a no-op runner from
// one goroutine: queue hand-off, dispatcher wake-up and reply.
func probeAdmit() float64 {
	ctl := admit.New(admitConfig, func([]any) {})
	defer ctl.Close()
	const n = 3000
	payload := new(int)
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := ctl.SubmitMutation(ctx, payload, nil); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / 1e3 / n
}

// probeRules is the mean time of the 3-rule / 100-fact join program of the
// repository's BenchmarkRuleEngine, session build included.
func probeRules() float64 {
	type item struct{ n, class int }
	type marker struct{ class int }
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		s := rules.NewSession()
		s.MustAddRules(
			&rules.Rule{
				Name:     "mark-classes",
				Salience: 10,
				When: []rules.Pattern{
					rules.Match[*item]("it", nil),
					rules.Not(func(bd rules.Bindings, m *marker) bool {
						return m.class == bd.Get("it").(*item).class
					}),
				},
				Then: func(ctx *rules.Context) {
					ctx.Insert(&marker{class: ctx.Get("it").(*item).class})
				},
			},
			&rules.Rule{
				Name: "count-pairs",
				When: []rules.Pattern{
					rules.Match[*marker]("m", nil),
					rules.Match("it", func(bd rules.Bindings, v *item) bool {
						return v.class == bd.Get("m").(*marker).class
					}),
				},
				Then: func(ctx *rules.Context) {},
			},
		)
		for j := 0; j < 100; j++ {
			s.Insert(&item{n: j, class: j % 5})
		}
		if _, err := s.FireAll(0); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / 1e3 / n
}
