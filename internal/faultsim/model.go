package faultsim

import (
	"fmt"
	"reflect"
	"sort"

	"policyflow/internal/bundle"
	"policyflow/internal/policy"
)

// The model in this file is an order-free re-implementation of the policy
// service's externally observable contract, built independently of the rule
// engine. The harness checks every policy.StateDump against it, so a bug
// would have to be made twice — once in the rules and once here, in
// different formulations — to go unnoticed. Exact advice equality is
// checked separately against a fault-free oracle service; the model's job
// is the global invariants: reference counts, staging, ledger accounting
// and threshold bounds.

type pairCluster struct {
	pair    policy.HostPair
	cluster string
}

type modelTransfer struct {
	destURL  string
	workflow string
	cluster  string
	pair     policy.HostPair
	streams  int
}

type modelResource struct {
	sourceURL string
	staged    bool
	users     map[string]int
}

type modelCleanup struct {
	fileURL  string
	workflow string
}

// modelBundle is the model's mirror of one policy bundle's tunables —
// the values the active bundle imposes on every subsequent operation.
type modelBundle struct {
	version          string
	checksum         string
	algorithm        policy.Algorithm
	defaultStreams   int
	minStreams       int
	defaultThreshold int
	clusterFactor    int
	pairTh           map[policy.HostPair]int
}

func modelBundleOf(b *bundle.Bundle) modelBundle {
	mb := modelBundle{
		version:          b.Version,
		checksum:         b.Checksum(),
		algorithm:        policy.Algorithm(b.Algorithm),
		defaultStreams:   b.DefaultStreams,
		minStreams:       b.MinStreams,
		defaultThreshold: b.DefaultThreshold,
		clusterFactor:    b.ClusterFactor,
		pairTh:           make(map[policy.HostPair]int, len(b.PairThresholds)),
	}
	for _, pt := range b.PairThresholds {
		mb.pairTh[policy.HostPair{Src: pt.SourceHost, Dst: pt.DestHost}] = pt.Max
	}
	return mb
}

// Model predicts, per operation, which requests are suppressed and why,
// which IDs are assigned, and how reference counts, stream ledgers and
// thresholds evolve. It is fed only the request and the service's reply.
type Model struct {
	cfg policy.Config

	nextTransfer int
	nextCleanup  int
	advised      int
	suppressed   int

	inProgress map[string]*modelTransfer // transfer ID -> in-flight transfer
	resources  map[string]*modelResource // dest URL -> staged-file resource
	cleanups   map[string]*modelCleanup  // cleanup ID -> in-progress cleanup

	pairsSeen   map[policy.HostPair]bool // pairs with group/ledger facts
	thFacts     map[policy.HostPair]int  // mirror of the Threshold fact set
	ledger      map[policy.HostPair]int
	clusterTh   map[policy.HostPair]int // balanced: per-cluster share, fixed at creation
	clusterLedg map[pairCluster]int     // balanced: per-(pair, cluster) allocation

	// active mirrors the tunables imposed by the active policy bundle;
	// prev is the rollback target (nil until the first activation).
	active modelBundle
	prev   *modelBundle

	clock  float64            // mirrors the service's logical clock
	leases map[string]float64 // workflow -> lease deadline (LeaseTTL > 0 only)
	epoch  uint64             // mirrors the fencing epoch (failover mode only)

	// CorruptRefcounts deliberately breaks the model's reference counting.
	// Tests set it to prove the harness reports a divergence instead of
	// silently agreeing with whatever the service does.
	CorruptRefcounts bool
}

// NewModel builds a model for a service running with cfg (cfg must carry
// explicit DefaultStreams, MinStreams, DefaultThreshold and ClusterFactor).
func NewModel(cfg policy.Config) *Model {
	m := &Model{
		cfg:         cfg,
		inProgress:  make(map[string]*modelTransfer),
		resources:   make(map[string]*modelResource),
		cleanups:    make(map[string]*modelCleanup),
		pairsSeen:   make(map[policy.HostPair]bool),
		thFacts:     make(map[policy.HostPair]int),
		ledger:      make(map[policy.HostPair]int),
		clusterTh:   make(map[policy.HostPair]int),
		clusterLedg: make(map[pairCluster]int),
		leases:      make(map[string]float64),
		active: modelBundle{
			version:          policy.BootstrapBundleVersion,
			algorithm:        cfg.Algorithm,
			defaultStreams:   cfg.DefaultStreams,
			minStreams:       cfg.MinStreams,
			defaultThreshold: cfg.DefaultThreshold,
			clusterFactor:    cfg.ClusterFactor,
			pairTh:           make(map[policy.HostPair]int, len(cfg.PairThresholds)),
		},
	}
	for p, v := range cfg.PairThresholds {
		m.active.pairTh[p] = v
		m.thFacts[p] = v
	}
	return m
}

// SetActiveChecksum records the checksum of the service's bootstrap bundle
// (the model cannot derive it: the v0 document is compiled into the
// service). The harness reads it from the fault-free oracle's tunables.
func (m *Model) SetActiveChecksum(sum string) { m.active.checksum = sum }

// ActiveVersion returns the version of the bundle the model believes is
// active. Every decision record the service emits from here on must carry
// this version.
func (m *Model) ActiveVersion() string { return m.active.version }

// SetEpoch records the fencing epoch the model expects every subsequent
// dump to carry. The harness calls it exactly when a promotion (or the
// initial role assignment) lands an epoch bump; any other epoch movement
// in a dump is a violation.
func (m *Model) SetEpoch(e uint64) { m.epoch = e }

func (m *Model) threshold(p policy.HostPair) int {
	if v, ok := m.thFacts[p]; ok {
		return v
	}
	return m.active.defaultThreshold
}

// InFlightIDs returns the IDs of in-flight transfers, sorted (the schedule
// generator draws completion reports from this list deterministically).
func (m *Model) InFlightIDs() []string {
	ids := make([]string, 0, len(m.inProgress))
	for id := range m.inProgress {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CleanupIDs returns the IDs of in-progress cleanups, sorted.
func (m *Model) CleanupIDs() []string {
	ids := make([]string, 0, len(m.cleanups))
	for id := range m.cleanups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// InFlightIDsOwned returns the in-flight transfer IDs whose owning
// workflow is not in dead, sorted. The generator draws completion reports
// from this list: a crashed client never reports.
func (m *Model) InFlightIDsOwned(dead map[string]bool) []string {
	ids := make([]string, 0, len(m.inProgress))
	for id, t := range m.inProgress {
		if !dead[t.workflow] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// CleanupIDsOwned returns the in-progress cleanup IDs whose owning
// workflow is not in dead, sorted.
func (m *Model) CleanupIDsOwned(dead map[string]bool) []string {
	ids := make([]string, 0, len(m.cleanups))
	for id, c := range m.cleanups {
		if !dead[c.workflow] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// TrackedURLs returns the dest URLs of tracked resources, sorted (cleanup
// targets for the generator).
func (m *Model) TrackedURLs() []string {
	urls := make([]string, 0, len(m.resources))
	for u := range m.resources {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Apply mirrors one acknowledged logged op into the model, given the
// payload the service executed and the result it returned; the advise and
// clock ops are also checked against the model's own prediction.
func (m *Model) Apply(op string, payload, result any) error {
	switch op {
	case policy.OpAdviseTransfers:
		return m.applyAdvice(payload.([]policy.TransferSpec), result.(*policy.TransferAdvice))
	case policy.OpReportTransfers:
		m.applyReport(payload.(policy.CompletionReport))
	case policy.OpAdviseCleanups:
		return m.applyCleanupAdvice(payload.([]policy.CleanupSpec), result.(*policy.CleanupAdvice))
	case policy.OpReportCleanups:
		// The cleanup and the deleted file's resource leave the state;
		// unknown IDs are ignored.
		for _, id := range payload.(policy.CleanupReport).CleanupIDs {
			if c := m.cleanups[id]; c != nil {
				delete(m.cleanups, id)
				delete(m.resources, c.fileURL)
			}
		}
	case policy.OpSetThreshold:
		// The service creates or updates the pair's Threshold fact in place.
		t := payload.(policy.ThresholdOp)
		m.thFacts[policy.HostPair{Src: t.SourceHost, Dst: t.DestHost}] = t.Max
	case policy.OpRenewLease:
		m.renewLease(payload.(policy.LeaseOp).WorkflowID)
	case policy.OpAdvanceClock:
		return m.applyAdvanceClock(payload.(policy.ClockOp).Now, result.(*policy.ClockAdvance))
	case policy.OpActivateBundle:
		return m.applyBundle(payload.(policy.BundleOp))
	default:
		return fmt.Errorf("model: no mirror for op %s", op)
	}
	return nil
}

// applyAdvice checks the service's transfer advice against the model's
// independent prediction and, if consistent, advances the model state.
func (m *Model) applyAdvice(specs []policy.TransferSpec, adv *policy.TransferAdvice) error {
	n := len(specs)
	ids := make([]string, n)
	for i := range specs {
		ids[i] = fmt.Sprintf("t-%08d", m.nextTransfer+i+1)
	}

	// Classify each dest-URL group: a staged resource suppresses the whole
	// group ("already-staged"), an in-flight transfer for the same file
	// suppresses the whole group ("in-progress"), otherwise the first
	// request survives and the rest are in-batch duplicates. The priority
	// order mirrors the rule saliences (staged > in-progress > in-batch).
	inflightURL := make(map[string]bool, len(m.inProgress))
	for _, t := range m.inProgress {
		inflightURL[t.destURL] = true
	}
	firstIdx := make(map[string]int)
	reasons := make([]string, n) // "" = advised
	survivors := make(map[string]int)
	for i, spec := range specs {
		switch {
		case m.resources[spec.DestURL] != nil && m.resources[spec.DestURL].staged:
			reasons[i] = "already-staged"
		case inflightURL[spec.DestURL]:
			reasons[i] = "in-progress"
		default:
			if _, dup := firstIdx[spec.DestURL]; dup {
				reasons[i] = "duplicate-in-batch"
			} else {
				firstIdx[spec.DestURL] = i
				survivors[spec.DestURL] = i
			}
		}
	}

	// Removed entries appear in batch order with the predicted reason.
	var wantRemoved []policy.RemovedTransfer
	for i, spec := range specs {
		if reasons[i] != "" {
			wantRemoved = append(wantRemoved, policy.RemovedTransfer{
				RequestID: spec.RequestID,
				SourceURL: spec.SourceURL,
				DestURL:   spec.DestURL,
				Reason:    reasons[i],
			})
		}
	}
	if !reflect.DeepEqual(adv.Removed, wantRemoved) {
		return fmt.Errorf("model: removed list mismatch:\n  got  %+v\n  want %+v", adv.Removed, wantRemoved)
	}

	// Advised entries: every survivor, with the position-predicted ID and a
	// stream grant inside the allocation bounds.
	type expectation struct{ idx int }
	expect := make(map[string]expectation, len(survivors))
	for _, i := range survivors {
		if _, dup := expect[specs[i].RequestID]; dup {
			return fmt.Errorf("model: duplicate request ID %q in batch", specs[i].RequestID)
		}
		expect[specs[i].RequestID] = expectation{idx: i}
	}
	if len(adv.Transfers) != len(expect) {
		return fmt.Errorf("model: advised %d transfers, predicted %d", len(adv.Transfers), len(expect))
	}
	for _, e := range adv.Transfers {
		x, ok := expect[e.RequestID]
		if !ok {
			return fmt.Errorf("model: unexpected advised transfer for request %q", e.RequestID)
		}
		delete(expect, e.RequestID)
		spec := specs[x.idx]
		if e.ID != ids[x.idx] {
			return fmt.Errorf("model: request %q assigned ID %s, predicted %s", e.RequestID, e.ID, ids[x.idx])
		}
		if e.SourceURL != spec.SourceURL || e.DestURL != spec.DestURL || e.WorkflowID != spec.WorkflowID || e.ClusterID != spec.ClusterID {
			return fmt.Errorf("model: advised transfer %s does not match its spec", e.ID)
		}
		if e.GroupID == "" {
			return fmt.Errorf("model: advised transfer %s has no group", e.ID)
		}
		requested := spec.RequestedStreams
		if requested <= 0 {
			requested = m.active.defaultStreams
		}
		grantCap := maxInt(requested, m.active.minStreams)
		if e.Streams < m.active.minStreams || e.Streams > grantCap {
			return fmt.Errorf("model: transfer %s granted %d streams, outside [%d, %d]",
				e.ID, e.Streams, m.active.minStreams, grantCap)
		}
		if m.active.algorithm == policy.AlgoNone && e.Streams != grantCap {
			return fmt.Errorf("model: algorithm none granted %d streams, want %d", e.Streams, grantCap)
		}
	}
	for reqID := range expect {
		return fmt.Errorf("model: request %q should have been advised but was not", reqID)
	}

	// Threshold bounds. Greedy: a pair's ledger may pass the threshold only
	// through the min-stream floor, once per grant. Balanced: the same
	// bound applies per (pair, cluster) against the frozen cluster share.
	if m.active.algorithm == policy.AlgoGreedy {
		sums := make(map[policy.HostPair]int)
		counts := make(map[policy.HostPair]int)
		for _, e := range adv.Transfers {
			p := policy.PairOf(e.SourceURL, e.DestURL)
			sums[p] += e.Streams
			counts[p]++
		}
		for p, s := range sums {
			before := m.ledger[p]
			after := before + s
			bound := maxInt(before, m.threshold(p)) + counts[p]*m.active.minStreams
			if after > bound {
				return fmt.Errorf("model: pair %s->%s ledger %d exceeds threshold bound %d (threshold %d, %d grants)",
					p.Src, p.Dst, after, bound, m.threshold(p), counts[p])
			}
		}
	}
	if m.active.algorithm == policy.AlgoBalanced {
		// Freeze cluster shares for pairs seen for the first time, using
		// the pair threshold in force now (the service never updates the
		// share afterwards, even when SetThreshold changes the threshold).
		for _, e := range adv.Transfers {
			p := policy.PairOf(e.SourceURL, e.DestURL)
			if _, ok := m.clusterTh[p]; !ok {
				m.clusterTh[p] = maxInt(1, m.threshold(p)/m.active.clusterFactor)
			}
		}
		sums := make(map[pairCluster]int)
		counts := make(map[pairCluster]int)
		for _, e := range adv.Transfers {
			pc := pairCluster{policy.PairOf(e.SourceURL, e.DestURL), e.ClusterID}
			sums[pc] += e.Streams
			counts[pc]++
		}
		for pc, s := range sums {
			before := m.clusterLedg[pc]
			after := before + s
			bound := maxInt(before, m.clusterTh[pc.pair]) + counts[pc]*m.active.minStreams
			if after > bound {
				return fmt.Errorf("model: pair %s->%s cluster %q ledger %d exceeds share bound %d",
					pc.pair.Src, pc.pair.Dst, pc.cluster, after, bound)
			}
		}
	}

	// Prediction confirmed — advance the model.
	m.nextTransfer += n
	m.advised += len(adv.Transfers)
	m.suppressed += len(adv.Removed)

	// Advising doubles as a liveness signal: every workflow in the batch
	// (advised or suppressed) gets its lease registered or extended.
	for _, spec := range specs {
		m.renewLease(spec.WorkflowID)
	}

	// Reference counting: every batch member — advised or suppressed —
	// counts as a user of the staged file, provided the resource fact
	// exists when the association rule runs. It exists when it pre-existed
	// or when a surviving member of this batch creates it; a group whose
	// members were all suppressed against an in-flight transfer whose
	// resource was deleted by a cleanup gets no resource and no counts.
	if !m.CorruptRefcounts {
		for url, si := range groupURLs(specs) {
			res := m.resources[url]
			if res == nil {
				if _, survives := survivors[url]; !survives {
					continue
				}
				res = &modelResource{sourceURL: specs[si[0]].SourceURL, users: make(map[string]int)}
				m.resources[url] = res
			}
			for _, i := range si {
				res.users[specs[i].WorkflowID]++
			}
		}
	}

	for _, e := range adv.Transfers {
		p := policy.PairOf(e.SourceURL, e.DestURL)
		m.pairsSeen[p] = true
		// The service materializes a Threshold fact at the current default
		// the first time a pair is advised without one (bundle activation
		// may have retracted an earlier fact for the same pair).
		if _, ok := m.thFacts[p]; !ok {
			m.thFacts[p] = m.active.defaultThreshold
		}
		if _, ok := m.ledger[p]; !ok {
			m.ledger[p] = 0
		}
		m.ledger[p] += e.Streams
		m.inProgress[e.ID] = &modelTransfer{
			destURL:  e.DestURL,
			workflow: e.WorkflowID,
			cluster:  e.ClusterID,
			pair:     p,
			streams:  e.Streams,
		}
		if m.active.algorithm == policy.AlgoBalanced {
			pc := pairCluster{p, e.ClusterID}
			if _, ok := m.clusterLedg[pc]; !ok {
				m.clusterLedg[pc] = 0
			}
			m.clusterLedg[pc] += e.Streams
		}
	}
	return nil
}

// groupURLs maps each dest URL to the batch indexes that requested it, in
// batch order, iterated deterministically by the caller via the map's use
// below (order does not matter: the per-group update is commutative).
func groupURLs(specs []policy.TransferSpec) map[string][]int {
	g := make(map[string][]int)
	for i, spec := range specs {
		g[spec.DestURL] = append(g[spec.DestURL], i)
	}
	return g
}

// applyReport advances the model for a completion report. Unknown IDs are
// ignored, matching the service's garbage-collection of unmatched results.
func (m *Model) applyReport(rep policy.CompletionReport) {
	release := func(t *modelTransfer) {
		m.ledger[t.pair] -= t.streams
		if m.ledger[t.pair] < 0 {
			m.ledger[t.pair] = 0
		}
		if m.active.algorithm == policy.AlgoBalanced {
			pc := pairCluster{t.pair, t.cluster}
			m.clusterLedg[pc] -= t.streams
			if m.clusterLedg[pc] < 0 {
				m.clusterLedg[pc] = 0
			}
		}
	}
	for _, id := range rep.TransferIDs {
		t := m.inProgress[id]
		if t == nil {
			continue
		}
		delete(m.inProgress, id)
		release(t)
		if r := m.resources[t.destURL]; r != nil {
			r.staged = true
		}
	}
	for _, id := range rep.FailedIDs {
		t := m.inProgress[id]
		if t == nil {
			continue
		}
		delete(m.inProgress, id)
		release(t)
		if r := m.resources[t.destURL]; r != nil && r.users[t.workflow] > 0 {
			r.users[t.workflow]--
			if r.users[t.workflow] == 0 {
				delete(r.users, t.workflow)
			}
		}
	}
}

// applyCleanupAdvice checks cleanup advice against the model's prediction
// and advances the model.
func (m *Model) applyCleanupAdvice(specs []policy.CleanupSpec, adv *policy.CleanupAdvice) error {
	n := len(specs)
	ids := make([]string, n)
	for i := range specs {
		ids[i] = fmt.Sprintf("c-%08d", m.nextCleanup+i+1)
	}
	inProgFile := make(map[string]bool, len(m.cleanups))
	for _, c := range m.cleanups {
		inProgFile[c.fileURL] = true
	}

	var wantAdvised []policy.AdvisedCleanup
	var wantRemoved []policy.RemovedCleanup
	type pendingCleanup struct {
		id   string
		spec policy.CleanupSpec
	}
	var approved []pendingCleanup
	seenFile := make(map[string]bool)
	for i, spec := range specs {
		if inProgFile[spec.FileURL] || seenFile[spec.FileURL] {
			wantRemoved = append(wantRemoved, policy.RemovedCleanup{
				RequestID: spec.RequestID, FileURL: spec.FileURL, Reason: "duplicate",
			})
			continue
		}
		seenFile[spec.FileURL] = true
		// The surviving request detaches its workflow from the resource
		// even when the cleanup is then refused as in-use.
		res := m.resources[spec.FileURL]
		if res != nil {
			delete(res.users, spec.WorkflowID)
		}
		if res != nil && len(res.users) > 0 {
			wantRemoved = append(wantRemoved, policy.RemovedCleanup{
				RequestID: spec.RequestID, FileURL: spec.FileURL, Reason: "in-use",
			})
			continue
		}
		wantAdvised = append(wantAdvised, policy.AdvisedCleanup{
			ID: ids[i], RequestID: spec.RequestID, WorkflowID: spec.WorkflowID, FileURL: spec.FileURL,
		})
		approved = append(approved, pendingCleanup{id: ids[i], spec: spec})
	}
	m.nextCleanup += n
	for _, spec := range specs {
		m.renewLease(spec.WorkflowID)
	}
	if !reflect.DeepEqual(adv.Cleanups, wantAdvised) {
		return fmt.Errorf("model: cleanup advice mismatch:\n  got  %+v\n  want %+v", adv.Cleanups, wantAdvised)
	}
	if !reflect.DeepEqual(adv.Removed, wantRemoved) {
		return fmt.Errorf("model: cleanup removed mismatch:\n  got  %+v\n  want %+v", adv.Removed, wantRemoved)
	}
	for _, p := range approved {
		m.cleanups[p.id] = &modelCleanup{fileURL: p.spec.FileURL, workflow: p.spec.WorkflowID}
	}
	return nil
}

// applyBundle advances the model for an activation. A rollback swaps the
// active and previous bundles. A document activates only when its
// checksum differs from the active one — re-activation is a no-op that
// appends nothing and records nothing — and the previous bundle becomes
// the rollback target. Either way the bundle-owned fact families are
// rebuilt the way the service's applyBundleLocked rebuilds them.
func (m *Model) applyBundle(op policy.BundleOp) error {
	if op.Rollback {
		if m.prev == nil {
			return fmt.Errorf("model: rollback accepted with no previous bundle")
		}
		m.active, *m.prev = *m.prev, m.active
		m.resetBundleFacts()
		return nil
	}
	b, err := bundle.Parse(op.Doc)
	if err != nil {
		return fmt.Errorf("model: accepted bundle fails to parse: %v", err)
	}
	if b.Checksum() != m.active.checksum {
		prev := m.active
		m.prev = &prev
		m.active = modelBundleOf(b)
		m.resetBundleFacts()
	}
	return nil
}

// resetBundleFacts rebuilds the fact families a bundle activation owns:
// Threshold facts are replaced wholesale by the bundle's pair list,
// cluster shares are dropped (re-frozen lazily on the next balanced
// advise), and cluster ledgers are re-materialized from in-flight
// transfers when the incoming algorithm is balanced. Pair ledgers, group
// counters, resources and leases survive untouched.
func (m *Model) resetBundleFacts() {
	m.thFacts = make(map[policy.HostPair]int, len(m.active.pairTh))
	for p, v := range m.active.pairTh {
		m.thFacts[p] = v
	}
	m.clusterTh = make(map[policy.HostPair]int)
	m.clusterLedg = make(map[pairCluster]int)
	if m.active.algorithm == policy.AlgoBalanced {
		for _, t := range m.inProgress {
			m.clusterLedg[pairCluster{t.pair, t.cluster}] += t.streams
		}
	}
}

// renewLease registers or extends owner's lease at clock + TTL, mirroring
// the service's renew-on-advise behavior. No-op when leases are disabled.
func (m *Model) renewLease(owner string) {
	if m.cfg.LeaseTTL <= 0 || owner == "" {
		return
	}
	if d := m.clock + m.cfg.LeaseTTL; d > m.leases[owner] {
		m.leases[owner] = d
	}
}

// applyAdvanceClock checks a clock advance's reported effect against the
// model's independent prediction — which leases expire and how much of the
// dead workflows' holdings are reclaimed — and advances the model: the
// expired owners' in-flight transfers are dropped and their streams
// released, their reference counts removed wholesale, and their in-progress
// cleanups forgotten. Resources stay tracked even with no users left.
func (m *Model) applyAdvanceClock(now float64, adv *policy.ClockAdvance) error {
	if now <= m.clock {
		// Monotonic clamp: a stale tick is a no-op on every replica.
		if adv.Now != m.clock || len(adv.Expired) != 0 || adv.ReclaimedTransfers != 0 || adv.ReclaimedStreams != 0 {
			return fmt.Errorf("model: stale clock advance to %v changed state: %+v", now, adv)
		}
		return nil
	}
	m.clock = now
	var expired []string
	for wf, deadline := range m.leases {
		if deadline <= now {
			expired = append(expired, wf)
		}
	}
	sort.Strings(expired)
	var want []string
	want = append(want, expired...) // nil when nothing expired, like the DTO
	if !reflect.DeepEqual(adv.Expired, want) {
		return fmt.Errorf("model: clock advance expired %v, predicted %v", adv.Expired, want)
	}
	reclaimedT, reclaimedS := 0, 0
	for _, wf := range expired {
		delete(m.leases, wf)
		for id, t := range m.inProgress {
			if t.workflow != wf {
				continue
			}
			reclaimedT++
			reclaimedS += t.streams
			m.ledger[t.pair] -= t.streams
			if m.ledger[t.pair] < 0 {
				m.ledger[t.pair] = 0
			}
			if m.active.algorithm == policy.AlgoBalanced {
				pc := pairCluster{t.pair, t.cluster}
				m.clusterLedg[pc] -= t.streams
				if m.clusterLedg[pc] < 0 {
					m.clusterLedg[pc] = 0
				}
			}
			delete(m.inProgress, id)
		}
		for _, r := range m.resources {
			delete(r.users, wf)
		}
		for id, c := range m.cleanups {
			if c.workflow == wf {
				delete(m.cleanups, id)
			}
		}
	}
	if adv.ReclaimedTransfers != reclaimedT || adv.ReclaimedStreams != reclaimedS {
		return fmt.Errorf("model: clock advance reclaimed %d transfers / %d streams, predicted %d / %d",
			adv.ReclaimedTransfers, adv.ReclaimedStreams, reclaimedT, reclaimedS)
	}
	if adv.Now != now {
		return fmt.Errorf("model: clock advance reports now=%v, requested %v", adv.Now, now)
	}
	return nil
}

// CheckDump verifies a full Policy Memory dump against the model: every
// fact the model predicts is present with the predicted value, and nothing
// else is. Call it between operations (no request is being evaluated).
func (m *Model) CheckDump(d *policy.StateDump) error {
	if d.NextTransfer != m.nextTransfer || d.NextCleanup != m.nextCleanup {
		return fmt.Errorf("model: ID counters (transfer %d, cleanup %d) != predicted (%d, %d)",
			d.NextTransfer, d.NextCleanup, m.nextTransfer, m.nextCleanup)
	}
	if d.NextGroup != len(m.pairsSeen) {
		return fmt.Errorf("model: %d groups created, predicted %d", d.NextGroup, len(m.pairsSeen))
	}
	if d.Advised != m.advised || d.Suppressed != m.suppressed {
		return fmt.Errorf("model: advised/suppressed counters (%d, %d) != predicted (%d, %d)",
			d.Advised, d.Suppressed, m.advised, m.suppressed)
	}

	// Transfers: exactly the in-flight set, one per file, all in progress.
	seenID := make(map[string]bool)
	urlInFlight := make(map[string]bool)
	for _, t := range d.Transfers {
		if t.State != int(policy.TransferInProgress) {
			return fmt.Errorf("model: transfer %s left in state %d between operations", t.ID, t.State)
		}
		if seenID[t.ID] {
			return fmt.Errorf("model: duplicate transfer ID %s", t.ID)
		}
		seenID[t.ID] = true
		if urlInFlight[t.DestURL] {
			return fmt.Errorf("model: two in-flight transfers stage %s", t.DestURL)
		}
		urlInFlight[t.DestURL] = true
		mt := m.inProgress[t.ID]
		if mt == nil {
			return fmt.Errorf("model: unexpected in-flight transfer %s", t.ID)
		}
		if mt.destURL != t.DestURL || mt.workflow != t.WorkflowID || mt.streams != t.AllocatedStreams {
			return fmt.Errorf("model: transfer %s is (%s, %s, %d streams), predicted (%s, %s, %d)",
				t.ID, t.DestURL, t.WorkflowID, t.AllocatedStreams, mt.destURL, mt.workflow, mt.streams)
		}
	}
	if len(d.Transfers) != len(m.inProgress) {
		return fmt.Errorf("model: %d in-flight transfers, predicted %d (%v)",
			len(d.Transfers), len(m.inProgress), m.InFlightIDs())
	}

	// Resources: reference counts must match exactly and never go negative.
	seenURL := make(map[string]bool)
	for _, r := range d.Resources {
		if seenURL[r.DestURL] {
			return fmt.Errorf("model: resource %s tracked twice", r.DestURL)
		}
		seenURL[r.DestURL] = true
		mr := m.resources[r.DestURL]
		if mr == nil {
			return fmt.Errorf("model: unexpected resource %s", r.DestURL)
		}
		if r.Staged != mr.staged {
			return fmt.Errorf("model: resource %s staged=%v, predicted %v", r.DestURL, r.Staged, mr.staged)
		}
		if len(r.Users) != len(mr.users) {
			return fmt.Errorf("model: resource %s has %d users, predicted %d (%+v vs %+v)",
				r.DestURL, len(r.Users), len(mr.users), r.Users, mr.users)
		}
		for _, u := range r.Users {
			if u.Count <= 0 {
				return fmt.Errorf("model: resource %s user %s has non-positive count %d", r.DestURL, u.WorkflowID, u.Count)
			}
			if mr.users[u.WorkflowID] != u.Count {
				return fmt.Errorf("model: resource %s user %s count %d, predicted %d",
					r.DestURL, u.WorkflowID, u.Count, mr.users[u.WorkflowID])
			}
		}
	}
	if len(d.Resources) != len(m.resources) {
		return fmt.Errorf("model: %d resources tracked, predicted %d", len(d.Resources), len(m.resources))
	}

	// Cleanups: exactly the in-progress set.
	for _, c := range d.Cleanups {
		if c.State != int(policy.CleanupInProgress) {
			return fmt.Errorf("model: cleanup %s left in state %d between operations", c.ID, c.State)
		}
		mc := m.cleanups[c.ID]
		if mc == nil {
			return fmt.Errorf("model: unexpected cleanup %s", c.ID)
		}
		if mc.fileURL != c.FileURL || mc.workflow != c.WorkflowID {
			return fmt.Errorf("model: cleanup %s is (%s, %s), predicted (%s, %s)",
				c.ID, c.FileURL, c.WorkflowID, mc.fileURL, mc.workflow)
		}
	}
	if len(d.Cleanups) != len(m.cleanups) {
		return fmt.Errorf("model: %d cleanups in progress, predicted %d", len(d.Cleanups), len(m.cleanups))
	}

	// Thresholds: the model mirrors the Threshold fact set directly
	// (bundle activation replaces it wholesale, so it cannot be derived
	// from pairs seen plus overrides).
	wantTh := make(map[policy.HostPair]int, len(m.thFacts))
	for p, v := range m.thFacts {
		wantTh[p] = v
	}
	gotTh := make(map[policy.HostPair]int, len(d.Thresholds))
	for _, th := range d.Thresholds {
		gotTh[policy.HostPair{Src: th.Src, Dst: th.Dst}] = th.Max
	}
	if !reflect.DeepEqual(gotTh, wantTh) {
		return fmt.Errorf("model: thresholds %+v, predicted %+v", gotTh, wantTh)
	}

	// Ledgers: one per pair seen, equal to the sum of in-flight grants.
	gotLedg := make(map[policy.HostPair]int, len(d.Ledgers))
	for _, l := range d.Ledgers {
		if l.Allocated < 0 {
			return fmt.Errorf("model: negative ledger for %s->%s", l.Src, l.Dst)
		}
		gotLedg[policy.HostPair{Src: l.Src, Dst: l.Dst}] = l.Allocated
	}
	wantLedg := make(map[policy.HostPair]int)
	for p := range m.pairsSeen {
		wantLedg[p] = m.ledger[p]
	}
	if !reflect.DeepEqual(gotLedg, wantLedg) {
		return fmt.Errorf("model: ledgers %+v, predicted %+v", gotLedg, wantLedg)
	}
	inFlightSum := make(map[policy.HostPair]int)
	for _, t := range m.inProgress {
		inFlightSum[t.pair] += t.streams
	}
	for p, v := range gotLedg {
		if v != inFlightSum[p] {
			return fmt.Errorf("model: ledger %s->%s is %d but in-flight grants sum to %d",
				p.Src, p.Dst, v, inFlightSum[p])
		}
	}

	// Leases: the clock and the lease set must match the model exactly, and
	// the liveness invariant must hold — with leases enabled, every
	// in-flight transfer owner, every staged-file user and every in-progress
	// cleanup owner holds an unexpired lease (anything else is a leak the
	// expiry pass failed to reclaim).
	if d.Clock != m.clock {
		return fmt.Errorf("model: clock %v, predicted %v", d.Clock, m.clock)
	}
	if d.Epoch != m.epoch {
		return fmt.Errorf("model: epoch %d, predicted %d", d.Epoch, m.epoch)
	}
	gotLeases := make(map[string]float64, len(d.Leases))
	for _, l := range d.Leases {
		if _, dup := gotLeases[l.Owner]; dup {
			return fmt.Errorf("model: workflow %s holds two leases", l.Owner)
		}
		gotLeases[l.Owner] = l.Deadline
	}
	if !reflect.DeepEqual(gotLeases, m.leases) {
		return fmt.Errorf("model: leases %+v, predicted %+v", gotLeases, m.leases)
	}
	if m.cfg.LeaseTTL > 0 {
		for _, l := range d.Leases {
			if l.Deadline <= d.Clock {
				return fmt.Errorf("model: lease %s expired (deadline %v <= clock %v) but was not reclaimed",
					l.Owner, l.Deadline, d.Clock)
			}
		}
		for _, t := range d.Transfers {
			if _, ok := gotLeases[t.WorkflowID]; !ok {
				return fmt.Errorf("model: in-flight transfer %s owned by %s, which holds no lease", t.ID, t.WorkflowID)
			}
		}
		for _, r := range d.Resources {
			for _, u := range r.Users {
				if _, ok := gotLeases[u.WorkflowID]; !ok {
					return fmt.Errorf("model: resource %s referenced by %s, which holds no lease", r.DestURL, u.WorkflowID)
				}
			}
		}
		for _, c := range d.Cleanups {
			if _, ok := gotLeases[c.WorkflowID]; !ok {
				return fmt.Errorf("model: cleanup %s owned by %s, which holds no lease", c.ID, c.WorkflowID)
			}
		}
	}

	// Cluster accounting (balanced only; absent otherwise).
	if m.active.algorithm != policy.AlgoBalanced {
		if len(d.ClusterThresholds) != 0 || len(d.ClusterLedgers) != 0 {
			return fmt.Errorf("model: cluster facts present under algorithm %q", m.active.algorithm)
		}
		return nil
	}
	gotCT := make(map[policy.HostPair]int, len(d.ClusterThresholds))
	for _, ct := range d.ClusterThresholds {
		gotCT[policy.HostPair{Src: ct.Src, Dst: ct.Dst}] = ct.Max
	}
	if !reflect.DeepEqual(gotCT, m.clusterTh) {
		return fmt.Errorf("model: cluster thresholds %+v, predicted %+v", gotCT, m.clusterTh)
	}
	gotCL := make(map[pairCluster]int, len(d.ClusterLedgers))
	for _, cl := range d.ClusterLedgers {
		if cl.Allocated < 0 {
			return fmt.Errorf("model: negative cluster ledger for %s->%s cluster %q", cl.Src, cl.Dst, cl.ClusterID)
		}
		gotCL[pairCluster{policy.HostPair{Src: cl.Src, Dst: cl.Dst}, cl.ClusterID}] = cl.Allocated
	}
	if !reflect.DeepEqual(gotCL, m.clusterLedg) {
		return fmt.Errorf("model: cluster ledgers %+v, predicted %+v", gotCL, m.clusterLedg)
	}
	return nil
}

// checkDumpConsistency validates a dump's internal invariants without a
// model — the check the concurrent stress test applies after quiescing,
// when operation order (and hence a model) is unavailable.
func checkDumpConsistency(d *policy.StateDump) error {
	seenID := make(map[string]bool)
	urlInFlight := make(map[string]bool)
	inFlightSum := make(map[policy.HostPair]int)
	for _, t := range d.Transfers {
		if t.State != int(policy.TransferInProgress) {
			return fmt.Errorf("consistency: transfer %s in state %d between operations", t.ID, t.State)
		}
		if seenID[t.ID] {
			return fmt.Errorf("consistency: duplicate transfer ID %s", t.ID)
		}
		seenID[t.ID] = true
		if urlInFlight[t.DestURL] {
			return fmt.Errorf("consistency: two in-flight transfers stage %s", t.DestURL)
		}
		urlInFlight[t.DestURL] = true
		if t.AllocatedStreams <= 0 {
			return fmt.Errorf("consistency: transfer %s has %d streams", t.ID, t.AllocatedStreams)
		}
		inFlightSum[policy.PairOf(t.SourceURL, t.DestURL)] += t.AllocatedStreams
	}
	for _, r := range d.Resources {
		for _, u := range r.Users {
			if u.Count <= 0 {
				return fmt.Errorf("consistency: resource %s user %s count %d", r.DestURL, u.WorkflowID, u.Count)
			}
		}
	}
	ledgerPairs := make(map[policy.HostPair]int)
	for _, l := range d.Ledgers {
		p := policy.HostPair{Src: l.Src, Dst: l.Dst}
		if l.Allocated < 0 {
			return fmt.Errorf("consistency: negative ledger %s->%s", l.Src, l.Dst)
		}
		ledgerPairs[p] = l.Allocated
		if l.Allocated != inFlightSum[p] {
			return fmt.Errorf("consistency: ledger %s->%s is %d, in-flight grants sum to %d",
				l.Src, l.Dst, l.Allocated, inFlightSum[p])
		}
	}
	for p, sum := range inFlightSum {
		if _, ok := ledgerPairs[p]; !ok && sum > 0 {
			return fmt.Errorf("consistency: in-flight streams on %s->%s but no ledger", p.Src, p.Dst)
		}
	}
	if len(d.ClusterLedgers) > 0 {
		perPair := make(map[policy.HostPair]int)
		for _, cl := range d.ClusterLedgers {
			perPair[policy.HostPair{Src: cl.Src, Dst: cl.Dst}] += cl.Allocated
		}
		for p, sum := range perPair {
			if sum != ledgerPairs[p] {
				return fmt.Errorf("consistency: cluster ledgers for %s->%s sum to %d, pair ledger is %d",
					p.Src, p.Dst, sum, ledgerPairs[p])
			}
		}
	}
	for _, c := range d.Cleanups {
		if c.State != int(policy.CleanupInProgress) {
			return fmt.Errorf("consistency: cleanup %s in state %d between operations", c.ID, c.State)
		}
	}
	return nil
}
