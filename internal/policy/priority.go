package policy

import (
	"policyflow/internal/bundle"
	"policyflow/internal/rules"
)

// Priority-based policy rules — the paper leaves "the implementation of
// rules related to the structure-based job priorities ... for future
// work" (Section IV); this file implements them. Two behaviours, per
// Section III(c): the Policy Service "can then use the priorities to
// determine the order of the transfers to be performed as well as the
// number of streams to allocate for particular data transfers."
//
// Ordering is realized by sortAdvice (priority descending). Stream
// weighting is realized by the rules below: before allocation, a transfer
// whose priority is strictly above the current median of the batch has
// its requested streams scaled up by the active bundle's boostFactor, and
// one strictly below has it scaled down by its reduceFactor (never below
// MinStreams). The greedy/balanced threshold enforcement still applies
// afterwards, so the host-pair cap is never violated.

const (
	salPriorityWeight = 55 // after defaults (80), before allocation (50)
)

// priorityRules implements the stream-weighting policy. It fires once per
// submitted transfer that carries a non-zero priority, comparing it to
// the median priority of all currently submitted transfers. The rule is
// gated on the active bundle carrying a priority section whose factors
// enable weighting (a bundle without one disables it), and reads them per
// firing, so a bundle can switch weighting on, off, or to new factors at
// activation.
func priorityRules(active func() *bundle.Bundle) []*rules.Rule {
	enabled := func(w *bundle.Priority) bool {
		return w != nil && (w.BoostFactor > 1 || (w.ReduceFactor > 0 && w.ReduceFactor < 1))
	}
	return []*rules.Rule{
		{
			Name:     "priority-weight-streams",
			Salience: salPriorityWeight,
			NoLoop:   true,
			Gate:     func() bool { return enabled(active().Priority) },
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted && t.Priority != 0 &&
						t.RequestedStreams > 0 && t.AllocatedStreams == 0
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				cur := active()
				w := cur.Priority
				med := medianSubmittedPriority(ctx)
				switch {
				case w.BoostFactor > 1 && t.Priority > med:
					boosted := int(float64(t.RequestedStreams) * w.BoostFactor)
					if boosted > t.RequestedStreams {
						t.RequestedStreams = boosted
						ctx.Update(t)
					}
				case w.ReduceFactor > 0 && w.ReduceFactor < 1 && t.Priority < med:
					reduced := int(float64(t.RequestedStreams) * w.ReduceFactor)
					if reduced < cur.MinStreams {
						reduced = cur.MinStreams
					}
					if reduced < t.RequestedStreams {
						t.RequestedStreams = reduced
						ctx.Update(t)
					}
				}
			},
		},
	}
}

// medianSubmittedPriority computes the median priority over the submitted
// transfers in working memory (including duplicates, which still reflect
// the batch's structure).
func medianSubmittedPriority(ctx *rules.Context) int {
	var ps []int
	for _, t := range rules.FactsOf[*Transfer](ctx) {
		if t.State == TransferSubmitted || t.State == TransferDuplicate {
			ps = append(ps, t.Priority)
		}
	}
	if len(ps) == 0 {
		return 0
	}
	// Insertion sort; batches are small.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps[len(ps)/2]
}
