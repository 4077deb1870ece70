package policy

import (
	"policyflow/internal/bundle"
	"policyflow/internal/rules"
)

// balancedRules implements Table III, the balanced allocation algorithm:
// the host-pair stream threshold is divided evenly among the workflow's
// transfer clusters (the Pegasus clustering factor gives the number of
// clusters running in parallel). Each cluster's transfers receive their
// requested streams until the cluster's share is exceeded; later transfers
// on that cluster fall back to a single stream. Because each cluster has a
// reserved share, a cluster whose requests arrive late is not starved by
// earlier clusters.
//
// Gated on the active bundle selecting balanced allocation (see
// greedyRules for the gating scheme).
func balancedRules(active func() *bundle.Bundle) []*rules.Rule {
	gate := func() bool { return Algorithm(active().Algorithm) == AlgoBalanced }
	return []*rules.Rule{
		// "Retrieve the parallel streams threshold defined for a single
		// cluster between a source and destination host": derive the
		// per-cluster share from the pair threshold and the cluster count.
		{
			Name:     "balanced-create-cluster-threshold",
			Salience: salClusterSetup,
			Gate:     gate,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.MatchOn("th", "pair", keyTransferPair, func(b rules.Bindings, th *Threshold) bool {
					return th.Pair == b.Get("t").(*Transfer).Pair
				}),
				rules.NotOn("pair", keyTransferPair, func(b rules.Bindings, ct *ClusterThreshold) bool {
					return ct.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				th := ctx.Get("th").(*Threshold)
				n := active().ClusterFactor
				if n < 1 {
					n = 1
				}
				share := th.Max / n
				if share < 1 {
					share = 1
				}
				ctx.Insert(&ClusterThreshold{Pair: t.Pair, Max: share})
			},
		},
		// Bootstrap the per-(pair, cluster) ledger.
		{
			Name:     "balanced-create-cluster-ledger",
			Salience: salClusterLedger,
			Gate:     gate,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.NotOn("paircluster", keyTransferCluster, func(b rules.Bindings, cl *ClusterLedger) bool {
					t := b.Get("t").(*Transfer)
					return cl.Pair == t.Pair && cl.ClusterID == t.ClusterID
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				ctx.Insert(&ClusterLedger{Pair: t.Pair, ClusterID: t.ClusterID})
			},
		},
		// "Enforce the max number of parallel streams on a transfer that
		// violates the number of available streams below the threshold on
		// its cluster" + "Record the number of parallel streams used by a
		// transfer against the defined cluster threshold".
		{
			Name:     "balanced-allocate",
			Salience: salAllocate,
			NoLoop:   true,
			Gate:     gate,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted && t.AllocatedStreams == 0 && t.RequestedStreams > 0
				}),
				rules.MatchOn("ct", "pair", keyTransferPair, func(b rules.Bindings, ct *ClusterThreshold) bool {
					return ct.Pair == b.Get("t").(*Transfer).Pair
				}),
				rules.MatchOn("cl", "paircluster", keyTransferCluster, func(b rules.Bindings, cl *ClusterLedger) bool {
					t := b.Get("t").(*Transfer)
					return cl.Pair == t.Pair && cl.ClusterID == t.ClusterID
				}),
				rules.MatchOn("l", "pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				ct := ctx.Get("ct").(*ClusterThreshold)
				cl := ctx.Get("cl").(*ClusterLedger)
				l := ctx.Get("l").(*StreamLedger)
				t.AllocatedStreams = greedyGrant(t.RequestedStreams, ct.Max, cl.Allocated, active().MinStreams)
				t.State = TransferAdvised
				cl.Allocated += t.AllocatedStreams
				l.Allocated += t.AllocatedStreams
				ctx.Update(t)
				ctx.Update(cl)
				ctx.Update(l)
			},
		},
		// Release the cluster share when a transfer finishes. Fires above
		// the common completion rules (salClusterRelease > salCompletion)
		// so the transfer fact is still present.
		{
			Name:     "balanced-release-cluster",
			Salience: salClusterRelease,
			NoLoop:   true,
			Gate:     gate,
			When: []rules.Pattern{
				rules.Match[*TransferResult]("e", nil),
				rules.MatchOn("t", "id", keyResultTransferID, func(b rules.Bindings, t *Transfer) bool {
					return t.ID == b.Get("e").(*TransferResult).TransferID
				}),
				rules.MatchOn("cl", "paircluster", keyTransferCluster, func(b rules.Bindings, cl *ClusterLedger) bool {
					t := b.Get("t").(*Transfer)
					return cl.Pair == t.Pair && cl.ClusterID == t.ClusterID
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				cl := ctx.Get("cl").(*ClusterLedger)
				cl.Allocated -= t.AllocatedStreams
				if cl.Allocated < 0 {
					cl.Allocated = 0
				}
				ctx.Update(cl)
			},
		},
	}
}
