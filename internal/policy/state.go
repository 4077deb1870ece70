package policy

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"sort"

	"policyflow/internal/bundle"
	"policyflow/internal/canon"
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

	// The facts, each fact type its own entry; only resources have a
	// dump form of their own (see ResourceDump).
	Transfers         []Transfer         `json:"transfers,omitempty" xml:"transfers>transfer,omitempty"`
	Resources         []ResourceDump     `json:"resources,omitempty" xml:"resources>resource,omitempty"`
	Cleanups          []Cleanup          `json:"cleanups,omitempty" xml:"cleanups>cleanup,omitempty"`
	Thresholds        []Threshold        `json:"thresholds,omitempty" xml:"thresholds>threshold,omitempty"`
	ClusterThresholds []ClusterThreshold `json:"clusterThresholds,omitempty" xml:"clusterThresholds>threshold,omitempty"`
	Groups            []Group            `json:"groups,omitempty" xml:"groups>group,omitempty"`
	Ledgers           []StreamLedger     `json:"ledgers,omitempty" xml:"ledgers>ledger,omitempty"`
	ClusterLedgers    []ClusterLedger    `json:"clusterLedgers,omitempty" xml:"clusterLedgers>ledger,omitempty"`
	Leases            []Lease            `json:"leases,omitempty" xml:"leases>lease,omitempty"`

	// raw is the JSON a replicated dump was decoded from (see ApplyReplica).
	raw []byte
	// once marks a dump handed over for one import (see ApplyReplica): the
	// import inserts its entries as Policy Memory's facts, uncopied.
	once bool
}

// DecodeStateDump decodes a dump from its JSON (see package canon). JSON
// null decodes to a nil dump, as json.Unmarshal has it.
func DecodeStateDump(data []byte) (*StateDump, error) {
	var d *StateDump
	if err := canon.Unmarshal(data, &d, decodeStateDumpPtr); err != nil {
		return nil, err
	}
	return d, nil
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

// ResourceDump serializes one Resource fact. It is the one fact with a
// dump form of its own: a resource's users are a map in memory and a list
// sorted by workflow ID on disk.
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
		// Copies: the rules read the installed bundles, and the dump's
		// holder may change its own.
		Bundle: &BundleStateDump{Active: cloneBundle(s.activeBundle)},
	}
	if s.prevBundle != nil {
		d.Bundle.Previous = cloneBundle(s.prevBundle)
	}
	d.Transfers = factValues[Transfer](s.session)
	for _, r := range rules.FactsOf[*Resource](s.session) {
		rd := ResourceDump{DestURL: r.DestURL, SourceURL: r.SourceURL, Staged: r.Staged}
		for wf, n := range r.Users {
			rd.Users = append(rd.Users, UserCount{WorkflowID: wf, Count: n})
		}
		sort.Slice(rd.Users, func(i, j int) bool { return rd.Users[i].WorkflowID < rd.Users[j].WorkflowID })
		d.Resources = append(d.Resources, rd)
	}
	d.Cleanups = factValues[Cleanup](s.session)
	d.Thresholds = factValues[Threshold](s.session)
	d.ClusterThresholds = factValues[ClusterThreshold](s.session)
	d.Groups = factValues[Group](s.session)
	d.Ledgers = factValues[StreamLedger](s.session)
	d.ClusterLedgers = factValues[ClusterLedger](s.session)
	d.Leases = factValues[Lease](s.session)
	sort.Slice(d.Leases, func(i, j int) bool { return d.Leases[i].Owner < d.Leases[j].Owner })
	return d
}

// factValues copies the session's facts of type T in insertion order, nil
// when there are none.
func factValues[T any](m rules.Memory) []T {
	facts := rules.FactsOf[*T](m)
	if len(facts) == 0 {
		return nil
	}
	out := make([]T, len(facts))
	for i, f := range facts {
		out[i] = *f
	}
	return out
}

// entry returns the fact to insert for facts[i]: the entry itself when
// its dump was decoded for this import alone, else a fresh copy, so Policy
// Memory never shares a fact with a dump someone else holds.
func entry[T any](facts []T, i int, inPlace bool) *T {
	if inPlace {
		return &facts[i]
	}
	f := facts[i]
	return &f
}

func insertFacts[T any](sess *rules.Session, facts []T, inPlace bool) {
	for i := range facts {
		sess.Insert(entry(facts, i, inPlace))
	}
}

func validateDump(d *StateDump) error {
	if d == nil {
		return fmt.Errorf("%w: nil state dump", ErrInvalidRequest)
	}
	if err := d.Verify(); err != nil {
		return fmt.Errorf("%w: state dump: %v", ErrInvalidRequest, err)
	}
	// The bundle state comes from outside the program like the facts do,
	// so it meets the schema an activation is held to.
	if b := d.Bundle; b != nil {
		for _, bb := range []*bundle.Bundle{b.Active, b.Previous} {
			if bb == nil {
				continue
			}
			if err := bb.Validate(); err != nil {
				return fmt.Errorf("%w: state dump: %v", ErrInvalidRequest, err)
			}
		}
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

	inPlace := d.once
	d.once = false // a second import of the same dump copies

	// Adopt the dump's bundle state, falling back to this service's own
	// compiled-in bundle for dumps that predate bundles. The rules read
	// the adopted bundle, never s.cfg, which may disagree with the
	// exporter's active bundle.
	if d.Bundle != nil && d.Bundle.Active != nil {
		s.adoptBundleLocked(d.Bundle.Active, d.Bundle.Previous, inPlace)
	} else {
		s.adoptBundleLocked(bundleFromConfig(s.cfg), nil, true)
	}
	for i := range d.Transfers {
		t := entry(d.Transfers, i, inPlace)
		t.Pair = PairOf(t.SourceURL, t.DestURL)
		s.session.Insert(t)
	}
	for _, rd := range d.Resources {
		r := &Resource{DestURL: rd.DestURL, SourceURL: rd.SourceURL, Staged: rd.Staged, Users: map[string]int{}}
		for _, u := range rd.Users {
			r.Users[u.WorkflowID] = u.Count
		}
		s.session.Insert(r)
	}
	insertFacts(s.session, d.Cleanups, inPlace)
	insertFacts(s.session, d.Thresholds, inPlace)
	insertFacts(s.session, d.ClusterThresholds, inPlace)
	insertFacts(s.session, d.Groups, inPlace)
	insertFacts(s.session, d.Ledgers, inPlace)
	insertFacts(s.session, d.ClusterLedgers, inPlace)
	insertFacts(s.session, d.Leases, inPlace)
	return
}
