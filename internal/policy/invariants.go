package policy

import "fmt"

// Verify checks the state-only invariants of a Policy Memory dump and
// returns the first violation. They hold on every state the service can
// reach between operations, whatever the history:
//   - transfer IDs are unique, and so are cleanup IDs;
//   - at most one in-flight transfer stages a dest URL (no duplicate
//     staging);
//   - every transfer holds at least one stream;
//   - each pair's ledger equals the sum of its in-flight grants, and no
//     pair has grants without a ledger;
//   - a pair's cluster ledgers sum to its pair ledger;
//   - every resource user count is positive.
//
// Lease liveness is not among them: whether a lease has expired depends
// on the TTL of the service holding the state.
func (d *StateDump) Verify() error {
	ids := make(map[string]bool, len(d.Transfers))
	staging := make(map[string]bool, len(d.Transfers))
	grants := make(map[HostPair]int)
	for _, t := range d.Transfers {
		if ids[t.ID] {
			return fmt.Errorf("duplicate transfer ID %s", t.ID)
		}
		ids[t.ID] = true
		if staging[t.DestURL] {
			return fmt.Errorf("two in-flight transfers stage %s", t.DestURL)
		}
		staging[t.DestURL] = true
		if t.AllocatedStreams <= 0 {
			return fmt.Errorf("transfer %s holds %d streams", t.ID, t.AllocatedStreams)
		}
		grants[PairOf(t.SourceURL, t.DestURL)] += t.AllocatedStreams
	}
	cleanupIDs := make(map[string]bool, len(d.Cleanups))
	for _, c := range d.Cleanups {
		if cleanupIDs[c.ID] {
			return fmt.Errorf("duplicate cleanup ID %s", c.ID)
		}
		cleanupIDs[c.ID] = true
	}
	ledgers := make(map[HostPair]int, len(d.Ledgers))
	for _, l := range d.Ledgers {
		if l.Allocated != grants[l.Pair] {
			return fmt.Errorf("ledger %s->%s is %d, in-flight grants sum to %d", l.Src, l.Dst, l.Allocated, grants[l.Pair])
		}
		ledgers[l.Pair] = l.Allocated
	}
	for p, sum := range grants {
		if _, ok := ledgers[p]; !ok {
			return fmt.Errorf("%d streams granted on %s->%s, which has no ledger", sum, p.Src, p.Dst)
		}
	}
	clusterSums := make(map[HostPair]int)
	for _, cl := range d.ClusterLedgers {
		clusterSums[cl.Pair] += cl.Allocated
	}
	for p, sum := range clusterSums {
		if sum != ledgers[p] {
			return fmt.Errorf("cluster ledgers of %s->%s sum to %d, pair ledger is %d", p.Src, p.Dst, sum, ledgers[p])
		}
	}
	for _, r := range d.Resources {
		for _, u := range r.Users {
			if u.Count <= 0 {
				return fmt.Errorf("resource %s user %s count is %d", r.DestURL, u.WorkflowID, u.Count)
			}
		}
	}
	return nil
}
