package policy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"policyflow/internal/bundle"
	"policyflow/internal/rules"
)

// Policy as data: the service's tunable surface — allocation algorithm,
// stream defaults, thresholds, cluster factor, priority weights — is
// governed by a versioned, checksummed bundle document (internal/bundle)
// rather than only by the compiled-in Config. The compiled-in values are
// embedded as the "v0" bundle at construction, so a service that never
// sees a bundle behaves exactly as before; activating a bundle atomically
// swaps an immutable Tunables snapshot and rewrites the configuration
// facts in Policy Memory behind a WAL-logged ActivateBundle mutation, so
// durable replay and replicas converge on the same active version. Every
// decision record carries the version that produced it.

// BootstrapBundleVersion names the bundle synthesized from the compiled-in
// configuration at construction.
const BootstrapBundleVersion = "v0"

// Tunables is the immutable snapshot of the active bundle's policy values.
// The service swaps the snapshot pointer only under its lock, and every
// operation (including each rule firing inside it) reads one snapshot for
// its whole duration, so a concurrent activation never half-applies to an
// in-flight decision. A Tunables value is never mutated after creation.
type Tunables struct {
	// Version and Checksum identify the producing bundle.
	Version  string
	Checksum string

	Algorithm        Algorithm
	DefaultStreams   int
	MinStreams       int
	DefaultThreshold int
	ClusterFactor    int
	Priority         PriorityWeighting
}

// bundleFromConfig synthesizes the v0 bundle from a normalized Config: the
// compiled-in defaults expressed as data, byte-identical in effect to the
// pre-bundle engine.
func bundleFromConfig(cfg Config) *bundle.Bundle {
	b := &bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          BootstrapBundleVersion,
		Description:      "compiled-in defaults",
		Algorithm:        string(cfg.Algorithm),
		DefaultStreams:   cfg.DefaultStreams,
		MinStreams:       cfg.MinStreams,
		DefaultThreshold: cfg.DefaultThreshold,
		ClusterFactor:    cfg.ClusterFactor,
	}
	for pair, max := range cfg.PairThresholds {
		b.PairThresholds = append(b.PairThresholds, bundle.PairThreshold{
			SourceHost: pair.Src, DestHost: pair.Dst, Max: max,
		})
	}
	sort.Slice(b.PairThresholds, func(i, j int) bool {
		a, c := b.PairThresholds[i], b.PairThresholds[j]
		if a.SourceHost != c.SourceHost {
			return a.SourceHost < c.SourceHost
		}
		return a.DestHost < c.DestHost
	})
	if w := cfg.Priority; w.BoostFactor > 1 || (w.ReduceFactor > 0 && w.ReduceFactor < 1) {
		p := &bundle.Priority{BoostFactor: w.BoostFactor, ReduceFactor: w.ReduceFactor}
		// Clamp into the schema's ranges; values outside them are inert in
		// the weighting rules anyway.
		if p.BoostFactor < 1 {
			p.BoostFactor = 1
		}
		if p.ReduceFactor < 0 {
			p.ReduceFactor = 0
		}
		if p.ReduceFactor > 1 {
			p.ReduceFactor = 1
		}
		b.Priority = p
	}
	return b
}

// tunablesFrom derives the immutable snapshot for an activated bundle. A
// bundle without a priority section keeps the compiled-in weighting.
func tunablesFrom(b *bundle.Bundle, fallback PriorityWeighting) *Tunables {
	t := &Tunables{
		Version:          b.Version,
		Checksum:         b.Checksum(),
		Algorithm:        Algorithm(b.Algorithm),
		DefaultStreams:   b.DefaultStreams,
		MinStreams:       b.MinStreams,
		DefaultThreshold: b.DefaultThreshold,
		ClusterFactor:    b.ClusterFactor,
		Priority:         fallback,
	}
	if b.Priority != nil {
		t.Priority = PriorityWeighting{
			BoostFactor:  b.Priority.BoostFactor,
			ReduceFactor: b.Priority.ReduceFactor,
		}
	}
	return t
}

// BundleInfo describes one bundle known to the service.
type BundleInfo struct {
	Version     string `json:"version" xml:"version"`
	Checksum    string `json:"checksum" xml:"checksum"`
	Description string `json:"description,omitempty" xml:"description,omitempty"`
	Algorithm   string `json:"algorithm" xml:"algorithm"`
	Active      bool   `json:"active,omitempty" xml:"active,omitempty"`
	Staged      bool   `json:"staged,omitempty" xml:"staged,omitempty"`
}

// BundleStatus is the service's bundle inventory: the active bundle, the
// previous one (the rollback target), and any staged-but-unactivated
// pushes. Staged bundles are held in memory only — they are excluded from
// state dumps and lost on restart; only activation is durable.
type BundleStatus struct {
	Active   BundleInfo   `json:"active" xml:"active"`
	Previous *BundleInfo  `json:"previous,omitempty" xml:"previous,omitempty"`
	Staged   []BundleInfo `json:"staged,omitempty" xml:"staged>bundle,omitempty"`
}

func bundleInfoOf(b *bundle.Bundle) BundleInfo {
	return BundleInfo{
		Version:     b.Version,
		Checksum:    b.Checksum(),
		Description: b.Description,
		Algorithm:   b.Algorithm,
	}
}

// Tunables returns a copy of the active tunables snapshot.
func (s *Service) Tunables() Tunables {
	s.mu.Lock()
	defer s.mu.Unlock()
	return *s.tun
}

// Bundles reports the service's bundle inventory.
func (s *Service) Bundles() *BundleStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &BundleStatus{Active: bundleInfoOf(s.activeBundle)}
	st.Active.Active = true
	if s.prevBundle != nil {
		i := bundleInfoOf(s.prevBundle)
		st.Previous = &i
	}
	versions := make([]string, 0, len(s.staged))
	for v := range s.staged {
		versions = append(versions, v)
	}
	sort.Strings(versions)
	for _, v := range versions {
		i := bundleInfoOf(s.staged[v])
		i.Staged = true
		st.Staged = append(st.Staged, i)
	}
	return st
}

// StageBundle validates a bundle document and stores it for later
// activation. Staging is not logged and not durable: a staged bundle
// applies no policy until activated, and is lost on restart.
func (s *Service) StageBundle(data []byte) (*BundleInfo, error) {
	b, err := bundle.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.installed[b.Version]; ok && cur.Checksum() != b.Checksum() {
		return nil, fmt.Errorf("%w: bundle version %q already activated with a different checksum",
			ErrInvalidRequest, b.Version)
	}
	s.staged[b.Version] = b
	info := bundleInfoOf(b)
	info.Staged = true
	info.Active = s.tun.Checksum == info.Checksum
	return &info, nil
}

// ActivateBundle parses a bundle document and activates it atomically.
// Activation is WAL-logged with the full document embedded, so crash
// replay and replica resync converge on the same active version without
// access to the original file. Activating the already-active checksum is
// an idempotent no-op and appends nothing.
func (s *Service) ActivateBundle(data []byte) (*BundleInfo, error) {
	return execAs[*BundleInfo](s, context.Background(), OpActivateBundle, BundleOp{Doc: data})
}

// decodeBundleOp decodes a logged activation; the log only ever holds the
// full document, so a record without one is damage, not a request.
func decodeBundleOp(payload []byte) (BundleOp, error) {
	op, err := decodeJSON[BundleOp](payload)
	if err == nil && op.Bundle == nil {
		err = errors.New("record carries no bundle")
	}
	return op, err
}

func validateBundleOp(op BundleOp) error {
	modes := 0
	for _, set := range []bool{op.Bundle != nil, len(op.Doc) > 0, op.Version != "", op.Rollback} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("%w: exactly one of version, bundle, or rollback is required", ErrInvalidRequest)
	}
	return nil
}

// activateBundleLocked is the apply function of activate_bundle: resolve
// the request to a bundle document, WAL-append that full document, swap
// the Tunables snapshot and rewrite the configuration facts.
func (s *Service) activateBundleLocked(ctx context.Context, op BundleOp) (info *BundleInfo, seq uint64, rec *DecisionRecord, err error) {
	b := op.Bundle
	switch {
	case op.Rollback:
		if b = s.prevBundle; b == nil {
			err = fmt.Errorf("%w: no previous bundle to roll back to", ErrInvalidRequest)
			return
		}
	case op.Version != "":
		if b = s.staged[op.Version]; b == nil {
			b = s.installed[op.Version]
		}
		if b == nil {
			err = fmt.Errorf("%w: unknown bundle version %q (push it first)", ErrInvalidRequest, op.Version)
			return
		}
	case b == nil:
		var perr error
		if b, perr = bundle.Parse(op.Doc); perr != nil {
			s.countActivation("invalid")
			err = fmt.Errorf("%w: %v", ErrInvalidRequest, perr)
			return
		}
	}
	i := bundleInfoOf(b)
	i.Active = true
	if s.tun.Checksum == i.Checksum {
		// Already active: exactly-once semantics. Nothing is appended, so
		// replay never sees (and replicas never diverge on) a duplicate.
		s.countActivation("noop")
		return &i, 0, nil, nil
	}
	if cur, ok := s.installed[b.Version]; ok && cur.Checksum() != i.Checksum {
		s.countActivation("conflict")
		err = fmt.Errorf("%w: bundle version %q already activated with a different checksum",
			ErrInvalidRequest, b.Version)
		return
	}
	if seq, err = s.appendLog(ctx, OpActivateBundle, BundleOp{Bundle: b}); err != nil {
		s.countActivation("error")
		return
	}
	s.applyBundleLocked(b)
	s.countActivation("activated")
	return &i, seq, &DecisionRecord{}, nil
}

// applyBundleLocked swaps the active bundle and rewrites the configuration
// facts in Policy Memory. Callers hold s.mu. The fact rewrites are
// deterministic (insertion-order iteration only), so every replica applying
// the same logged activation reaches byte-identical state:
//
//   - Defaults and ClusterFactor facts are updated in place;
//   - Threshold facts are replaced wholesale by the bundle's pair set —
//     pairs the bundle does not pin re-bootstrap at the new default on
//     their next advise;
//   - ClusterThreshold facts are dropped (shares re-derive from the new
//     threshold and factor);
//   - ClusterLedger facts are rebuilt from in-flight transfers under
//     balanced allocation (keeping cluster sums equal to the pair ledger)
//     and dropped otherwise.
func (s *Service) applyBundleLocked(b *bundle.Bundle) {
	old := s.tun
	s.prevBundle = s.activeBundle
	s.activeBundle = b
	s.installed[b.Version] = b
	delete(s.staged, b.Version)
	s.tun = tunablesFrom(b, s.cfg.Priority)

	if d, ok := rules.First(s.session, func(*Defaults) bool { return true }); ok {
		d.DefaultStreams = s.tun.DefaultStreams
		d.MinStreams = s.tun.MinStreams
		s.session.Update(d)
	}
	if cf, ok := rules.First(s.session, func(*ClusterFactor) bool { return true }); ok {
		cf.N = s.tun.ClusterFactor
		s.session.Update(cf)
	}
	for _, th := range rules.FactsOf[*Threshold](s.session) {
		s.session.Retract(th)
	}
	for _, pt := range b.PairThresholds {
		s.session.Insert(&Threshold{Pair: HostPair{Src: pt.SourceHost, Dst: pt.DestHost}, Max: pt.Max})
	}
	for _, ct := range rules.FactsOf[*ClusterThreshold](s.session) {
		s.session.Retract(ct)
	}
	for _, cl := range rules.FactsOf[*ClusterLedger](s.session) {
		s.session.Retract(cl)
	}
	if s.tun.Algorithm == AlgoBalanced {
		type key struct {
			pair    HostPair
			cluster string
		}
		ledgers := make(map[key]*ClusterLedger)
		var order []*ClusterLedger
		for _, t := range rules.FactsOf[*Transfer](s.session) {
			if t.State != TransferInProgress {
				continue
			}
			k := key{t.Pair, t.ClusterID}
			cl, ok := ledgers[k]
			if !ok {
				cl = &ClusterLedger{Pair: t.Pair, ClusterID: t.ClusterID}
				ledgers[k] = cl
				order = append(order, cl)
			}
			cl.Allocated += t.AllocatedStreams
		}
		for _, cl := range order {
			s.session.Insert(cl)
		}
	}
	// Rule gates and guards read the tunables snapshot directly (e.g.
	// transfer-min-one-stream reads MinStreams), so the incremental matcher
	// must re-join every rule against the new snapshot.
	s.session.Invalidate()
	if s.metrics != nil {
		s.metrics.bundleInfo.With(old.Version).Set(0)
		s.metrics.bundleInfo.With(s.tun.Version).Set(1)
	}
}

// adoptBundleLocked installs bundle state carried by an imported dump
// without touching facts (the dump's fact lists already reflect it).
// Callers hold s.mu.
func (s *Service) adoptBundleLocked(active, prev *bundle.Bundle) {
	oldVersion := s.tun.Version
	// A dump usually carries the bundle already active here; its tunables
	// stand, and the bundle is not encoded again for its checksum.
	if !reflect.DeepEqual(active, s.activeBundle) {
		s.tun = tunablesFrom(active, s.cfg.Priority)
	}
	s.activeBundle, s.prevBundle = active, prev
	s.installed[active.Version] = active
	if prev != nil {
		s.installed[prev.Version] = prev
	}
	// Same contract as applyBundleLocked: guards reading the snapshot must
	// be re-evaluated even though no facts changed.
	s.session.Invalidate()
	if s.metrics != nil && oldVersion != s.tun.Version {
		s.metrics.bundleInfo.With(oldVersion).Set(0)
		s.metrics.bundleInfo.With(s.tun.Version).Set(1)
	}
}

// countActivation records one activation attempt by result. Callers hold
// s.mu; the map backs metric backfill for a late Instrument call.
func (s *Service) countActivation(result string) {
	s.bundleActsByResult[result]++
	if s.metrics != nil {
		s.metrics.bundleActs.With(result).Inc()
	}
}
