package policy

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"sort"

	"policyflow/internal/bundle"
	"policyflow/internal/rules"
)

// StateDump is a serializable snapshot of Policy Memory, supporting the
// replication strategies the paper proposes as future work ("strategies
// for distribution and replication of policy logic to improve
// reliability"): a standby service imports a dump and continues exactly
// where the primary left off — same in-flight transfers, staged-file
// resources, ledgers and ID counters.
type StateDump struct {
	XMLName xml.Name `json:"-" xml:"policyState"`

	NextTransfer int `json:"nextTransfer" xml:"nextTransfer"`
	NextGroup    int `json:"nextGroup" xml:"nextGroup"`
	NextCleanup  int `json:"nextCleanup" xml:"nextCleanup"`
	Advised      int `json:"advised" xml:"advised"`
	Suppressed   int `json:"suppressed" xml:"suppressed"`
	// Clock is the logical clock driving lease expiry.
	Clock float64 `json:"clock,omitempty" xml:"clock,omitempty"`
	// Epoch is the fencing epoch in force when the dump was taken; a
	// replica importing the dump adopts it, so a promoted standby's epoch
	// survives resync and snapshot/restore.
	Epoch uint64 `json:"epoch,omitempty" xml:"epoch,omitempty"`
	// Bundle carries the active and previous policy bundles, so a replica
	// importing the dump adopts the exact tunables — not its own compiled
	// defaults — and retains the rollback target. Staged (pushed but never
	// activated) bundles are deliberately absent: they carry no applied
	// policy and must not make replica dumps diverge.
	Bundle *BundleStateDump `json:"bundleState,omitempty" xml:"bundleState,omitempty"`

	Transfers         []TransferDump    `json:"transfers,omitempty" xml:"transfers>transfer,omitempty"`
	Resources         []ResourceDump    `json:"resources,omitempty" xml:"resources>resource,omitempty"`
	Cleanups          []CleanupDump     `json:"cleanups,omitempty" xml:"cleanups>cleanup,omitempty"`
	Thresholds        []ThresholdDump   `json:"thresholds,omitempty" xml:"thresholds>threshold,omitempty"`
	ClusterThresholds []ClusterThDump   `json:"clusterThresholds,omitempty" xml:"clusterThresholds>threshold,omitempty"`
	Groups            []GroupDump       `json:"groups,omitempty" xml:"groups>group,omitempty"`
	Ledgers           []LedgerDump      `json:"ledgers,omitempty" xml:"ledgers>ledger,omitempty"`
	ClusterLedgers    []ClusterLedgDump `json:"clusterLedgers,omitempty" xml:"clusterLedgers>ledger,omitempty"`
	Leases            []LeaseDump       `json:"leases,omitempty" xml:"leases>lease,omitempty"`

	// raw is the JSON a replicated dump was decoded from (see ApplyReplica).
	raw []byte
}

// JSON returns the dump's JSON encoding. A dump ApplyReplica took from a
// donor's archive returns the exact bytes it was decoded from, so a store
// persisting it does not re-encode the state.
func (d *StateDump) JSON() ([]byte, error) {
	if d.raw != nil {
		return d.raw, nil
	}
	return json.Marshal(d)
}

// BundleStateDump serializes the bundle subsystem's durable state.
type BundleStateDump struct {
	Active   *bundle.Bundle `json:"active,omitempty" xml:"active,omitempty"`
	Previous *bundle.Bundle `json:"previous,omitempty" xml:"previous,omitempty"`
}

// LeaseDump serializes one Lease fact.
type LeaseDump struct {
	Owner    string  `json:"owner" xml:"owner"`
	Deadline float64 `json:"deadline" xml:"deadline"`
}

// TransferDump serializes one Transfer fact.
type TransferDump struct {
	ID               string `json:"id" xml:"id"`
	RequestID        string `json:"requestId,omitempty" xml:"requestId,omitempty"`
	WorkflowID       string `json:"workflowId,omitempty" xml:"workflowId,omitempty"`
	JobID            string `json:"jobId,omitempty" xml:"jobId,omitempty"`
	ClusterID        string `json:"clusterId,omitempty" xml:"clusterId,omitempty"`
	SourceURL        string `json:"sourceUrl" xml:"sourceUrl"`
	DestURL          string `json:"destUrl" xml:"destUrl"`
	SizeBytes        int64  `json:"sizeBytes,omitempty" xml:"sizeBytes,omitempty"`
	RequestedStreams int    `json:"requestedStreams" xml:"requestedStreams"`
	AllocatedStreams int    `json:"allocatedStreams" xml:"allocatedStreams"`
	GroupID          string `json:"groupId,omitempty" xml:"groupId,omitempty"`
	Priority         int    `json:"priority,omitempty" xml:"priority,omitempty"`
	State            int    `json:"state" xml:"state"`
}

// ResourceDump serializes one Resource fact.
type ResourceDump struct {
	DestURL   string      `json:"destUrl" xml:"destUrl"`
	SourceURL string      `json:"sourceUrl,omitempty" xml:"sourceUrl,omitempty"`
	Staged    bool        `json:"staged" xml:"staged"`
	Users     []UserCount `json:"users,omitempty" xml:"users>user,omitempty"`
}

// UserCount is one workflow's usage count on a resource.
type UserCount struct {
	WorkflowID string `json:"workflowId" xml:"workflowId"`
	Count      int    `json:"count" xml:"count"`
}

// CleanupDump serializes one Cleanup fact.
type CleanupDump struct {
	ID         string `json:"id" xml:"id"`
	RequestID  string `json:"requestId,omitempty" xml:"requestId,omitempty"`
	WorkflowID string `json:"workflowId,omitempty" xml:"workflowId,omitempty"`
	FileURL    string `json:"fileUrl" xml:"fileUrl"`
	State      int    `json:"state" xml:"state"`
	Reason     string `json:"reason,omitempty" xml:"reason,omitempty"`
}

// ThresholdDump serializes one Threshold fact.
type ThresholdDump struct {
	Src string `json:"src" xml:"src"`
	Dst string `json:"dst" xml:"dst"`
	Max int    `json:"max" xml:"max"`
}

// ClusterThDump serializes one ClusterThreshold fact.
type ClusterThDump struct {
	Src string `json:"src" xml:"src"`
	Dst string `json:"dst" xml:"dst"`
	Max int    `json:"max" xml:"max"`
}

// GroupDump serializes one Group fact.
type GroupDump struct {
	Src string `json:"src" xml:"src"`
	Dst string `json:"dst" xml:"dst"`
	ID  string `json:"id" xml:"id"`
}

// LedgerDump serializes one StreamLedger fact.
type LedgerDump struct {
	Src       string `json:"src" xml:"src"`
	Dst       string `json:"dst" xml:"dst"`
	Allocated int    `json:"allocated" xml:"allocated"`
}

// ClusterLedgDump serializes one ClusterLedger fact.
type ClusterLedgDump struct {
	Src       string `json:"src" xml:"src"`
	Dst       string `json:"dst" xml:"dst"`
	ClusterID string `json:"clusterId" xml:"clusterId"`
	Allocated int    `json:"allocated" xml:"allocated"`
}

// ExportState snapshots the service's Policy Memory.
func (s *Service) ExportState() *StateDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exportStateLocked()
}

// ExportStateAt snapshots Policy Memory together with a caller-derived
// sequence marker, reading both under the service lock so the pair is
// consistent against concurrent mutations. The durability layer uses it
// to pair a snapshot with its exact write-ahead-log position.
func (s *Service) ExportStateAt(seqOf func() uint64) (*StateDump, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64
	if seqOf != nil {
		seq = seqOf()
	}
	return s.exportStateLocked(), seq
}

// exportStateLocked builds the dump; callers hold s.mu.
func (s *Service) exportStateLocked() *StateDump {
	d := &StateDump{
		NextTransfer: s.nextTransfer,
		NextGroup:    s.nextGroup,
		NextCleanup:  s.nextCleanup,
		Advised:      s.advised,
		Suppressed:   s.suppressed,
		Clock:        s.clock,
		Epoch:        s.epoch,
		Bundle:       &BundleStateDump{Active: s.activeBundle, Previous: s.prevBundle},
	}
	for _, t := range rules.FactsOf[*Transfer](s.session) {
		d.Transfers = append(d.Transfers, TransferDump{
			ID: t.ID, RequestID: t.RequestID, WorkflowID: t.WorkflowID,
			JobID: t.JobID, ClusterID: t.ClusterID,
			SourceURL: t.SourceURL, DestURL: t.DestURL,
			SizeBytes: t.SizeBytes, RequestedStreams: t.RequestedStreams,
			AllocatedStreams: t.AllocatedStreams, GroupID: t.GroupID,
			Priority: t.Priority, State: int(t.State),
		})
	}
	for _, r := range rules.FactsOf[*Resource](s.session) {
		rd := ResourceDump{DestURL: r.DestURL, SourceURL: r.SourceURL, Staged: r.Staged}
		for wf, n := range r.Users {
			rd.Users = append(rd.Users, UserCount{WorkflowID: wf, Count: n})
		}
		sort.Slice(rd.Users, func(i, j int) bool { return rd.Users[i].WorkflowID < rd.Users[j].WorkflowID })
		d.Resources = append(d.Resources, rd)
	}
	for _, c := range rules.FactsOf[*Cleanup](s.session) {
		d.Cleanups = append(d.Cleanups, CleanupDump{
			ID: c.ID, RequestID: c.RequestID, WorkflowID: c.WorkflowID,
			FileURL: c.FileURL, State: int(c.State), Reason: c.Reason,
		})
	}
	for _, th := range rules.FactsOf[*Threshold](s.session) {
		d.Thresholds = append(d.Thresholds, ThresholdDump{Src: th.Pair.Src, Dst: th.Pair.Dst, Max: th.Max})
	}
	for _, ct := range rules.FactsOf[*ClusterThreshold](s.session) {
		d.ClusterThresholds = append(d.ClusterThresholds, ClusterThDump{Src: ct.Pair.Src, Dst: ct.Pair.Dst, Max: ct.Max})
	}
	for _, g := range rules.FactsOf[*Group](s.session) {
		d.Groups = append(d.Groups, GroupDump{Src: g.Pair.Src, Dst: g.Pair.Dst, ID: g.ID})
	}
	for _, l := range rules.FactsOf[*StreamLedger](s.session) {
		d.Ledgers = append(d.Ledgers, LedgerDump{Src: l.Pair.Src, Dst: l.Pair.Dst, Allocated: l.Allocated})
	}
	for _, cl := range rules.FactsOf[*ClusterLedger](s.session) {
		d.ClusterLedgers = append(d.ClusterLedgers, ClusterLedgDump{
			Src: cl.Pair.Src, Dst: cl.Pair.Dst, ClusterID: cl.ClusterID, Allocated: cl.Allocated,
		})
	}
	for _, l := range rules.FactsOf[*Lease](s.session) {
		d.Leases = append(d.Leases, LeaseDump{Owner: l.Owner, Deadline: l.Deadline})
	}
	sort.Slice(d.Leases, func(i, j int) bool { return d.Leases[i].Owner < d.Leases[j].Owner })
	return d
}

func validateDump(d *StateDump) error {
	if d == nil {
		return fmt.Errorf("%w: nil state dump", ErrInvalidRequest)
	}
	if err := d.Verify(); err != nil {
		return fmt.Errorf("%w: state dump: %v", ErrInvalidRequest, err)
	}
	return nil
}

// importStateLocked is the apply function of import_state: it replaces
// the service's Policy Memory with the dump. The service keeps its rule
// base and configuration; imported facts resume exactly where the
// exporting service stopped (duplicate suppression, in-use protection and
// ledger accounting all continue to apply).
func (s *Service) importStateLocked(ctx context.Context, d *StateDump) (_ any, seq uint64, _ *DecisionRecord, err error) {
	if seq, err = s.appendLog(ctx, OpImportState, d); err != nil {
		return
	}
	s.session.Reset()
	s.nextTransfer = d.NextTransfer
	s.nextGroup = d.NextGroup
	s.nextCleanup = d.NextCleanup
	s.advised = d.Advised
	s.suppressed = d.Suppressed
	// The dump carries no per-reason split and no cleanup counts: start
	// them afresh rather than keep this service's own earlier history.
	clear(s.suppressedByReason)
	s.cleanupsAdvised = 0
	clear(s.cleanupsSuppByReason)
	s.clock = d.Clock
	s.epoch = d.Epoch

	// Adopt the dump's bundle state (falling back to this service's own
	// compiled-in bundle for dumps that predate bundles), then derive the
	// configuration facts from the adopted tunables — never from s.cfg,
	// which may disagree with the exporter's active bundle.
	if d.Bundle != nil && d.Bundle.Active != nil {
		s.adoptBundleLocked(d.Bundle.Active, d.Bundle.Previous)
	} else {
		s.adoptBundleLocked(bundleFromConfig(s.cfg), nil)
	}
	s.session.Insert(&Defaults{DefaultStreams: s.tun.DefaultStreams, MinStreams: s.tun.MinStreams})
	s.session.Insert(&ClusterFactor{N: s.tun.ClusterFactor})

	for _, td := range d.Transfers {
		s.session.Insert(&Transfer{
			ID: td.ID, RequestID: td.RequestID, WorkflowID: td.WorkflowID,
			JobID: td.JobID, ClusterID: td.ClusterID,
			SourceURL: td.SourceURL, DestURL: td.DestURL,
			Pair:      PairOf(td.SourceURL, td.DestURL),
			SizeBytes: td.SizeBytes, RequestedStreams: td.RequestedStreams,
			AllocatedStreams: td.AllocatedStreams, GroupID: td.GroupID,
			Priority: td.Priority, State: TransferState(td.State),
		})
	}
	for _, rd := range d.Resources {
		r := &Resource{DestURL: rd.DestURL, SourceURL: rd.SourceURL, Staged: rd.Staged, Users: map[string]int{}}
		for _, u := range rd.Users {
			r.Users[u.WorkflowID] = u.Count
		}
		s.session.Insert(r)
	}
	for _, cd := range d.Cleanups {
		s.session.Insert(&Cleanup{
			ID: cd.ID, RequestID: cd.RequestID, WorkflowID: cd.WorkflowID,
			FileURL: cd.FileURL, State: CleanupState(cd.State), Reason: cd.Reason,
		})
	}
	for _, th := range d.Thresholds {
		s.session.Insert(&Threshold{Pair: HostPair{Src: th.Src, Dst: th.Dst}, Max: th.Max})
	}
	for _, ct := range d.ClusterThresholds {
		s.session.Insert(&ClusterThreshold{Pair: HostPair{Src: ct.Src, Dst: ct.Dst}, Max: ct.Max})
	}
	for _, g := range d.Groups {
		s.session.Insert(&Group{Pair: HostPair{Src: g.Src, Dst: g.Dst}, ID: g.ID})
	}
	for _, l := range d.Ledgers {
		s.session.Insert(&StreamLedger{Pair: HostPair{Src: l.Src, Dst: l.Dst}, Allocated: l.Allocated})
	}
	for _, cl := range d.ClusterLedgers {
		s.session.Insert(&ClusterLedger{
			Pair: HostPair{Src: cl.Src, Dst: cl.Dst}, ClusterID: cl.ClusterID, Allocated: cl.Allocated,
		})
	}
	for _, l := range d.Leases {
		s.session.Insert(&Lease{Owner: l.Owner, Deadline: l.Deadline})
	}
	return
}
