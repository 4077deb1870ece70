package policy

import (
	"policyflow/internal/bundle"
	"policyflow/internal/rules"
)

// greedyRules implements Table II, the greedy allocation algorithm:
// transfers are granted their requested number of parallel streams until
// the host-pair threshold is exceeded; a request that would cross the
// threshold is trimmed to the remaining capacity; once the threshold is
// reached, each new transfer receives a single stream so it is never
// starved. Streams freed by completed transfers become available to new
// transfers (but are not granted retroactively to ongoing ones).
//
// The rules are gated on the active bundle selecting greedy allocation:
// all algorithm rule sets are installed up front and the gate picks one
// per firing cycle, so activating a bundle switches algorithms without
// rebuilding the session.
func greedyRules(active func() *bundle.Bundle) []*rules.Rule {
	gate := func() bool { return Algorithm(active().Algorithm) == AlgoGreedy }
	return []*rules.Rule{
		{
			// "Enforce the maximum number of parallel streams on a
			// transfer" + "Record the number of parallel streams used by a
			// transfer against the defined threshold".
			Name:     "greedy-allocate",
			Salience: salAllocate,
			NoLoop:   true,
			Gate:     gate,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted && t.AllocatedStreams == 0 && t.RequestedStreams > 0
				}),
				rules.MatchOn("th", "pair", keyTransferPair, func(b rules.Bindings, th *Threshold) bool {
					return th.Pair == b.Get("t").(*Transfer).Pair
				}),
				rules.MatchOn("l", "pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				th := ctx.Get("th").(*Threshold)
				l := ctx.Get("l").(*StreamLedger)
				t.AllocatedStreams = greedyGrant(t.RequestedStreams, th.Max, l.Allocated, active().MinStreams)
				t.State = TransferAdvised
				l.Allocated += t.AllocatedStreams
				ctx.Update(t)
				ctx.Update(l)
			},
		},
	}
}

// greedyGrant computes the greedy stream grant for one transfer.
//
//   - remaining capacity >= requested: grant the request in full;
//   - some capacity remains: "allocate only the number of streams that
//     does not exceed the threshold";
//   - threshold reached or exceeded: "allocate one stream for the new
//     transfer" (minStreams, which is 1 unless configured higher).
func greedyGrant(requested, threshold, allocated, minStreams int) int {
	if minStreams < 1 {
		minStreams = 1
	}
	if requested < minStreams {
		requested = minStreams
	}
	remaining := threshold - allocated
	switch {
	case remaining >= requested:
		return requested
	case remaining >= minStreams:
		return remaining
	default:
		return minStreams
	}
}

// GreedyMaxStreams computes the maximum number of simultaneous streams the
// greedy algorithm will allocate when concurrentJobs transfers (each
// requesting defaultStreams) are in flight at once — the quantity the
// paper's Table IV reports for 20 concurrent staging jobs.
func GreedyMaxStreams(threshold, defaultStreams, concurrentJobs int) int {
	allocated := 0
	for i := 0; i < concurrentJobs; i++ {
		allocated += greedyGrant(defaultStreams, threshold, allocated, 1)
	}
	return allocated
}

// passthroughRules implements the no-allocation ("none") algorithm: every
// transfer is granted exactly what it asked for (subject to the minimum of
// one stream). This models default Pegasus behaviour with the policy
// service acting only as bookkeeper, and is the "no policy" baseline of the
// paper's evaluation when the service is consulted at all. Gated on the
// active bundle selecting "none".
func passthroughRules(active func() *bundle.Bundle) []*rules.Rule {
	return []*rules.Rule{
		{
			Name:     "passthrough-allocate",
			Salience: salAllocate,
			NoLoop:   true,
			Gate:     func() bool { return Algorithm(active().Algorithm) == AlgoNone },
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted && t.AllocatedStreams == 0 && t.RequestedStreams > 0
				}),
				rules.MatchOn("l", "pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				l := ctx.Get("l").(*StreamLedger)
				t.AllocatedStreams = t.RequestedStreams
				if min := active().MinStreams; t.AllocatedStreams < min {
					t.AllocatedStreams = min
				}
				t.State = TransferAdvised
				l.Allocated += t.AllocatedStreams
				ctx.Update(t)
				ctx.Update(l)
			},
		},
	}
}
