package policy

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"policyflow/internal/bundle"
	"policyflow/internal/rules"
)

// Policy as data: the service's tunable surface — allocation algorithm,
// stream defaults, thresholds, cluster factor, priority weights — is
// governed by a versioned, checksummed bundle document (internal/bundle).
// The compiled-in Config is embedded as the "v0" bundle at construction,
// so a service that never sees a bundle behaves exactly as before. The
// active bundle is the one copy of the tunables: the rules read it
// directly, and activating a bundle swaps the active bundle pointer and
// rewrites the configuration facts in Policy Memory behind a WAL-logged
// activate_bundle mutation, so durable replay and replicas converge on the
// same active version. Per-pair thresholds and priority weighting come
// only from a bundle (or, for a pair, from set_threshold); v0 carries
// neither. Every decision record carries the version that produced it.

// BootstrapBundleVersion names the bundle synthesized from the compiled-in
// configuration at construction.
const BootstrapBundleVersion = "v0"

// bundleFromConfig synthesizes the v0 bundle from a normalized Config: the
// compiled-in defaults expressed as data, with a one-stream floor and no
// pair thresholds or priority weighting.
func bundleFromConfig(cfg Config) *bundle.Bundle {
	return &bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          BootstrapBundleVersion,
		Description:      "compiled-in defaults",
		Algorithm:        string(cfg.Algorithm),
		DefaultStreams:   cfg.DefaultStreams,
		MinStreams:       1,
		DefaultThreshold: cfg.DefaultThreshold,
		ClusterFactor:    cfg.ClusterFactor,
	}
}

// cloneBundle returns a copy of b sharing no memory with it.
func cloneBundle(b *bundle.Bundle) *bundle.Bundle {
	cp := *b
	cp.PairThresholds = append([]bundle.PairThreshold(nil), b.PairThresholds...)
	if b.Priority != nil {
		p := *b.Priority
		cp.Priority = &p
	}
	return &cp
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
	XMLName  struct{}     `json:"-" xml:"bundles"`
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

// ActiveBundle returns a copy of the active bundle: the tunables every
// rule reads.
func (s *Service) ActiveBundle() *bundle.Bundle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneBundle(s.activeBundle)
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
	info.Active = s.activeBundle.Checksum() == info.Checksum
	return &info, nil
}

// decodeBundleOp decodes a logged activation; the log only ever holds the
// full document, so a record without one is damage, not a request.
func decodeBundleOp(payload []byte) (BundleOp, error) {
	op, err := decodeBundleOpJSON(payload)
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
// the active bundle and rewrite the configuration facts. Activation is
// logged with the full document embedded, so crash replay and replica
// resync converge on the same active version without access to the
// original file. Activating the already-active checksum is an idempotent
// no-op and appends nothing.
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
			s.bundleActsByResult["invalid"]++
			err = fmt.Errorf("%w: %v", ErrInvalidRequest, perr)
			return
		}
	}
	i := bundleInfoOf(b)
	i.Active = true
	if s.activeBundle.Checksum() == i.Checksum {
		// Already active: exactly-once semantics. Nothing is appended, so
		// replay never sees (and replicas never diverge on) a duplicate.
		s.bundleActsByResult["noop"]++
		return &i, 0, nil, nil
	}
	if cur, ok := s.installed[b.Version]; ok && cur.Checksum() != i.Checksum {
		s.bundleActsByResult["conflict"]++
		err = fmt.Errorf("%w: bundle version %q already activated with a different checksum",
			ErrInvalidRequest, b.Version)
		return
	}
	if seq, err = s.appendLog(ctx, OpActivateBundle, BundleOp{Bundle: b}); err != nil {
		s.bundleActsByResult["error"]++
		return
	}
	s.applyBundleLocked(b)
	if op.Rollback {
		s.bundleActsByResult["rolled_back"]++
	} else {
		s.bundleActsByResult["activated"]++
	}
	return &i, seq, &DecisionRecord{}, nil
}

// applyBundleLocked swaps the active bundle and rewrites the configuration
// facts in Policy Memory. Callers hold s.mu. The fact rewrites are
// deterministic (insertion-order iteration only), so every replica applying
// the same logged activation reaches byte-identical state:
//
//   - Threshold facts are replaced wholesale by the bundle's pair set —
//     pairs the bundle does not pin re-bootstrap at the new default on
//     their next advise;
//   - ClusterThreshold facts are dropped (shares re-derive from the new
//     threshold and factor);
//   - ClusterLedger facts are rebuilt from in-flight transfers under
//     balanced allocation (keeping cluster sums equal to the pair ledger)
//     and dropped otherwise.
func (s *Service) applyBundleLocked(b *bundle.Bundle) {
	s.prevBundle = s.activeBundle
	s.activeBundle = b
	s.installed[b.Version] = b
	delete(s.staged, b.Version)

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
	if Algorithm(b.Algorithm) == AlgoBalanced {
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
	// Rule gates and guards read the active bundle directly (e.g.
	// transfer-min-one-stream reads MinStreams), so the incremental matcher
	// must re-join every rule against the new bundle.
	s.session.Invalidate()
}

// adoptBundleLocked installs bundle state carried by an imported dump
// without touching facts (the dump's fact lists already reflect it). The
// rules read the installed bundles, so they are copies unless the dump was
// handed over for this import alone. Callers hold s.mu.
func (s *Service) adoptBundleLocked(active, prev *bundle.Bundle, inPlace bool) {
	if !inPlace {
		active = cloneBundle(active)
		if prev != nil {
			prev = cloneBundle(prev)
		}
	}
	s.activeBundle, s.prevBundle = active, prev
	s.installed[active.Version] = active
	if prev != nil {
		s.installed[prev.Version] = prev
	}
	// Same contract as applyBundleLocked: guards reading the bundle must
	// be re-evaluated even though no facts changed.
	s.session.Invalidate()
}
