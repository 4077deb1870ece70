package policy

import "policyflow/internal/rules"

// Alpha-memory indexes for the Policy Memory session. Every join in the
// rule sets is an equality on one of a handful of keys — host pair,
// destination URL, transfer/cleanup ID, workflow owner, lifecycle state —
// so a small set of shared named indexes lets the incremental matcher
// probe one bucket per pattern instead of scanning a type's whole extent.
// The hints are pure acceleration: each pattern's guard still states the
// full join condition, and the differential harness in internal/rules runs
// the reference engine with hints ignored, so an unsound hint shows up as
// an engine divergence, not silent advice drift.

// pairCluster keys the balanced allocator's per-(pair, cluster) ledger.
type pairCluster struct {
	Pair      HostPair
	ClusterID string
}

// registerIndexes installs the shared alpha indexes. Must run before the
// rule sets referencing them are added.
func registerIndexes(s *rules.Session) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(rules.AddIndexOf(s, "state", func(t *Transfer) TransferState { return t.State }))
	// "pending" buckets the states the associate-resource rule matches
	// (Submitted or Duplicate) under one boolean key — a predicate-keyed
	// alpha node, since a single state bucket cannot express the union.
	must(rules.AddIndexOf(s, "pending", func(t *Transfer) bool {
		return t.State == TransferSubmitted || t.State == TransferDuplicate
	}))
	must(rules.AddIndexOf(s, "dest", func(t *Transfer) string { return t.DestURL }))
	must(rules.AddIndexOf(s, "id", func(t *Transfer) string { return t.ID }))
	must(rules.AddIndexOf(s, "owner", func(t *Transfer) string { return t.WorkflowID }))
	must(rules.AddIndexOf(s, "dest", func(r *Resource) string { return r.DestURL }))
	must(rules.AddIndexOf(s, "pair", func(th *Threshold) HostPair { return th.Pair }))
	must(rules.AddIndexOf(s, "pair", func(l *StreamLedger) HostPair { return l.Pair }))
	must(rules.AddIndexOf(s, "pair", func(g *Group) HostPair { return g.Pair }))
	must(rules.AddIndexOf(s, "pair", func(ct *ClusterThreshold) HostPair { return ct.Pair }))
	must(rules.AddIndexOf(s, "paircluster", func(cl *ClusterLedger) pairCluster {
		return pairCluster{Pair: cl.Pair, ClusterID: cl.ClusterID}
	}))
	must(rules.AddIndexOf(s, "state", func(c *Cleanup) CleanupState { return c.State }))
	must(rules.AddIndexOf(s, "file", func(c *Cleanup) string { return c.FileURL }))
	must(rules.AddIndexOf(s, "id", func(c *Cleanup) string { return c.ID }))
	must(rules.AddIndexOf(s, "owner", func(c *Cleanup) string { return c.WorkflowID }))
}

// Probe-key helpers shared by the rule sets. Each computes a pattern's
// index key from the bindings of earlier patterns.

// keyConst probes a fixed bucket (e.g. the Submitted state).
func keyConst[K comparable](k K) func(rules.Bindings) K {
	return func(rules.Bindings) K { return k }
}

// transferByID resolves a transfer fact by ID via the "id" alpha index —
// the report paths call this once per reported ID, so the naive O(facts)
// scan it replaces dominated report latency at scale.
func transferByID(s *rules.Session, id string) (*Transfer, bool) {
	return rules.FirstByKey[*Transfer](s, "id", id)
}

func keyTransferDest(b rules.Bindings) string   { return b.Get("t").(*Transfer).DestURL }
func keyTransferPair(b rules.Bindings) HostPair { return b.Get("t").(*Transfer).Pair }
func keyTransferCluster(b rules.Bindings) pairCluster {
	t := b.Get("t").(*Transfer)
	return pairCluster{Pair: t.Pair, ClusterID: t.ClusterID}
}
func keyResultTransferID(b rules.Bindings) string { return b.Get("e").(*TransferResult).TransferID }
func keyExpiredOwner(b rules.Bindings) string     { return b.Get("e").(*LeaseExpired).Owner }
func keyCleanupFile(b rules.Bindings) string      { return b.Get("c").(*Cleanup).FileURL }
func keyCleanupResultID(b rules.Bindings) string  { return b.Get("e").(*CleanupResult).CleanupID }
