package policy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"policyflow/internal/bundle"
	"policyflow/internal/obs"
)

// bundleDoc marshals a bundle for activation in tests.
func bundleDoc(t *testing.T, b bundle.Bundle) []byte {
	t.Helper()
	doc, err := json.Marshal(&b)
	if err != nil {
		t.Fatalf("marshal bundle: %v", err)
	}
	return doc
}

// activateEdited activates a copy of s's active bundle, renamed to
// version and changed by edit: the way a test sets the tunables Config
// does not carry, such as pair thresholds and priority weighting.
func activateEdited(t testing.TB, s *Service, version string, edit func(b *bundle.Bundle)) {
	t.Helper()
	b := s.ActiveBundle()
	b.Version, b.Description = version, ""
	edit(b)
	doc, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal bundle: %v", err)
	}
	if _, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: doc}); err != nil {
		t.Fatalf("activate %s: %v", version, err)
	}
}

// TestBootstrapBundleGolden pins the no-bundle behavior: a service that
// never sees a bundle document runs under the embedded v0 bundle, whose
// effect is byte-identical to the compiled defaults — same grants, same
// thresholds — and whose version stamps every decision record.
func TestBootstrapBundleGolden(t *testing.T) {
	s := newGreedy(t, 50, 4)
	v0 := s.ActiveBundle()
	if v0.Version != BootstrapBundleVersion {
		t.Fatalf("boot version %q, want %q", v0.Version, BootstrapBundleVersion)
	}
	if v0.Checksum() == "" {
		t.Fatal("boot bundle has no checksum")
	}
	if v0.Algorithm != bundle.AlgoGreedy || v0.DefaultStreams != 4 || v0.DefaultThreshold != 50 {
		t.Fatalf("boot bundle %+v diverges from config", v0)
	}
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1"), spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range adv.Transfers {
		if tr.Streams != 4 {
			t.Errorf("grant %d streams under v0, want compiled default 4", tr.Streams)
		}
	}
	for _, rec := range s.Decisions(0) {
		if rec.Bundle != BootstrapBundleVersion {
			t.Errorf("decision %s stamped %q, want %q", rec.Op, rec.Bundle, BootstrapBundleVersion)
		}
	}
	st := s.Bundles()
	if !st.Active.Active || st.Active.Version != BootstrapBundleVersion || st.Previous != nil {
		t.Fatalf("boot bundle status %+v", st)
	}
}

// TestBootstrapBundleFromConfig pins every field of the v0 bundle New
// embeds, for each algorithm and several stream, threshold and cluster
// factor settings: the Config's four tunables, a one-stream floor, no
// pair thresholds and no priority section, valid under the bundle schema.
func TestBootstrapBundleFromConfig(t *testing.T) {
	for _, algo := range []Algorithm{AlgoNone, AlgoGreedy, AlgoBalanced} {
		for _, c := range []struct{ streams, threshold, clusterFactor int }{
			{4, 50, 1},
			{8, 20, 3},
			{1, 7, 2},
		} {
			t.Run(fmt.Sprintf("%s/%d-%d-%d", algo, c.streams, c.threshold, c.clusterFactor), func(t *testing.T) {
				want := &bundle.Bundle{
					SchemaVersion:    bundle.SchemaVersion,
					Version:          BootstrapBundleVersion,
					Description:      "compiled-in defaults",
					Algorithm:        string(algo),
					DefaultStreams:   c.streams,
					MinStreams:       1,
					DefaultThreshold: c.threshold,
					ClusterFactor:    c.clusterFactor,
				}
				s, err := New(Config{Algorithm: algo, DefaultStreams: c.streams,
					DefaultThreshold: c.threshold, ClusterFactor: c.clusterFactor})
				if err != nil {
					t.Fatal(err)
				}
				got := s.ActiveBundle()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("v0 = %+v, want %+v", got, want)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("v0 fails the bundle schema: %v", err)
				}
			})
		}
	}
}

// TestBundleEquivalentToDefaultsIsBehaviorPreserving activates a bundle
// carrying exactly the compiled default tunables (under a new version
// name) and requires the grants to stay byte-identical to an untouched
// service — policy-as-data must not perturb policy-as-code.
func TestBundleEquivalentToDefaultsIsBehaviorPreserving(t *testing.T) {
	plain := newGreedy(t, 50, 4)
	bundled := newGreedy(t, 50, 4)
	if _, err := Call[*BundleInfo](context.Background(), bundled, OpActivateBundle, BundleOp{Doc: bundleDoc(t, bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          "defaults-as-data",
		Algorithm:        bundle.AlgoGreedy,
		DefaultStreams:   4,
		MinStreams:       1,
		DefaultThreshold: 50,
		ClusterFactor:    1,
	})}); err != nil {
		t.Fatalf("ActivateBundle: %v", err)
	}
	specs := []TransferSpec{spec(1, "wf1"), spec(2, "wf1"), spec(1, "wf2")}
	a1, err := plain.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := bundled.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("advice diverges under equivalent bundle:\n plain   %+v\n bundled %+v", a1, a2)
	}
	recs := bundled.Decisions(0)
	if got := recs[len(recs)-1].Bundle; got != "defaults-as-data" {
		t.Fatalf("decision stamped %q, want defaults-as-data", got)
	}
}

// TestActivateBundleSwapsThresholdFacts verifies the fact rewrite: the
// bundle's pair thresholds replace the existing Threshold facts wholesale,
// and subsequent grants obey the new bounds.
func TestActivateBundleSwapsThresholdFacts(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetThreshold("other.example.org", "dst.example.org", 9); err != nil {
		t.Fatal(err)
	}
	info, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: bundleDoc(t, bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          "tight",
		Algorithm:        bundle.AlgoGreedy,
		DefaultStreams:   2,
		MinStreams:       1,
		DefaultThreshold: 3,
		ClusterFactor:    1,
		PairThresholds: []bundle.PairThreshold{
			{SourceHost: "futuregrid.tacc.example.org", DestHost: "obelix.isi.example.org", Max: 6},
		},
	})})
	if err != nil {
		t.Fatalf("ActivateBundle: %v", err)
	}
	if !info.Active || info.Version != "tight" {
		t.Fatalf("activation info %+v", info)
	}
	d := s.ExportState()
	if len(d.Thresholds) != 1 {
		t.Fatalf("threshold facts after activation: %+v, want exactly the bundle's pair", d.Thresholds)
	}
	th := d.Thresholds[0]
	if th.Src != "futuregrid.tacc.example.org" || th.Dst != "obelix.isi.example.org" || th.Max != 6 {
		t.Fatalf("threshold fact %+v", th)
	}
	active := s.ActiveBundle()
	if active.Version != "tight" || active.DefaultThreshold != 3 || active.DefaultStreams != 2 {
		t.Fatalf("bundle after activation %+v", active)
	}
}

// TestRollbackRestoresPriorTunablesWithoutRestart is the rollback
// acceptance check: activating a bundle and rolling it back returns the
// tunables and threshold facts to their pre-activation values in place,
// with no process restart.
func TestRollbackRestoresPriorTunablesWithoutRestart(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	before := s.ActiveBundle()
	if _, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: bundleDoc(t, bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          "experiment",
		Algorithm:        bundle.AlgoBalanced,
		DefaultStreams:   1,
		MinStreams:       1,
		DefaultThreshold: 2,
		ClusterFactor:    2,
	})}); err != nil {
		t.Fatal(err)
	}
	if s.ActiveBundle().Version != "experiment" {
		t.Fatal("activation did not take effect")
	}
	info, err := s.RollbackBundle()
	if err != nil {
		t.Fatalf("RollbackBundle: %v", err)
	}
	if info.Version != BootstrapBundleVersion {
		t.Fatalf("rollback landed on %q, want %q", info.Version, BootstrapBundleVersion)
	}
	after := s.ActiveBundle()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("bundle after rollback:\n before %+v\n after  %+v", before, after)
	}
	// The pair advised under v0 regains its default-threshold fact on the
	// next advise; new grants run under the restored defaults.
	adv, err := s.AdviseTransfers([]TransferSpec{spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Transfers[0].Streams != 4 {
		t.Fatalf("grant %d streams after rollback, want restored default 4", adv.Transfers[0].Streams)
	}
	st := s.Bundles()
	if st.Previous == nil || st.Previous.Version != "experiment" {
		t.Fatalf("rollback target after rollback: %+v, want experiment", st.Previous)
	}
}

// TestSnapshotThresholdAfterBundleSwap: an activation replaces the
// Threshold facts, so a pair that keeps its stream ledger has none until
// its next advise installs the active default. GET /v1/state reports that
// default for it, not 0.
func TestSnapshotThresholdAfterBundleSwap(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: bundleDoc(t, bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          "wide",
		Algorithm:        bundle.AlgoGreedy,
		DefaultStreams:   4,
		MinStreams:       1,
		DefaultThreshold: 70,
		ClusterFactor:    1,
	})}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap.Pairs) != 1 || snap.Pairs[0].Threshold != 70 || snap.Pairs[0].Allocated != 4 {
		t.Fatalf("pairs after activation = %+v, want one at threshold 70 holding 4", snap.Pairs)
	}
}

// TestRollbackWithoutHistoryIsRejected pins the error contract: rolling
// back before any activation is a deterministic 4xx-class rejection.
func TestRollbackWithoutHistoryIsRejected(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.RollbackBundle(); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("RollbackBundle with no history: %v, want ErrInvalidRequest", err)
	}
}

// TestActivateBundleRejectsVersionReuse pins immutability: a version name,
// once activated, cannot be reused for a different document.
func TestActivateBundleRejectsVersionReuse(t *testing.T) {
	s := newGreedy(t, 50, 4)
	mk := func(streams int) []byte {
		return bundleDoc(t, bundle.Bundle{
			SchemaVersion:    bundle.SchemaVersion,
			Version:          "pinned",
			Algorithm:        bundle.AlgoGreedy,
			DefaultStreams:   streams,
			MinStreams:       1,
			DefaultThreshold: 10,
			ClusterFactor:    1,
		})
	}
	if _, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: mk(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: mk(3)}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("version reuse: %v, want ErrInvalidRequest", err)
	}
	// Re-activating the identical document is a no-op, not a conflict.
	info, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: mk(2)})
	if err != nil || !info.Active {
		t.Fatalf("idempotent re-activation: info %+v err %v", info, err)
	}
}

// TestActivateBundleRejectsMalformedDocuments maps every validation
// failure to ErrInvalidRequest so the HTTP layer answers 400, never 500.
func TestActivateBundleRejectsMalformedDocuments(t *testing.T) {
	s := newGreedy(t, 50, 4)
	cases := map[string][]byte{
		"syntax":         []byte(`{"schemaVersion": 1,`),
		"unknown-field":  []byte(`{"schemaVersion": 1, "version": "x", "algorithm": "greedy", "defaultStreams": 1, "minStreams": 1, "defaultThreshold": 1, "clusterFactor": 1, "surprise": true}`),
		"unknown-schema": []byte(`{"schemaVersion": 99, "version": "x", "algorithm": "greedy", "defaultStreams": 1, "minStreams": 1, "defaultThreshold": 1, "clusterFactor": 1}`),
		"bad-algorithm":  []byte(`{"schemaVersion": 1, "version": "x", "algorithm": "psychic", "defaultStreams": 1, "minStreams": 1, "defaultThreshold": 1, "clusterFactor": 1}`),
	}
	for name, doc := range cases {
		if _, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: doc}); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: ActivateBundle = %v, want ErrInvalidRequest", name, err)
		}
		if _, err := s.StageBundle(doc); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: StageBundle = %v, want ErrInvalidRequest", name, err)
		}
	}
	if got := s.ActiveBundle().Version; got != BootstrapBundleVersion {
		t.Fatalf("rejected documents changed the active bundle to %q", got)
	}
}

// payloadLog keeps every appended record as the JSON the WAL would hold,
// so a test can replay them into a fresh service.
type payloadLog struct {
	ops      []string
	payloads [][]byte
}

func (l *payloadLog) Append(op string, payload any) (uint64, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	l.ops = append(l.ops, op)
	l.payloads = append(l.payloads, data)
	return uint64(len(l.ops)), nil
}

func (l *payloadLog) Sync(uint64) error { return nil }

// TestBundleActivationsCountRollbacks pins policy_bundle_activations_total:
// a rollback counts as rolled_back, not as activated. The WAL record of a
// rollback carries the full bundle it lands on, so a replayed rollback
// is indistinguishable from an activation and counts as activated.
func TestBundleActivationsCountRollbacks(t *testing.T) {
	s := newGreedy(t, 50, 4)
	wal := &payloadLog{}
	s.SetMutationLog(wal)
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)
	if _, err := Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Doc: bundleDoc(t, bundle.Bundle{
		SchemaVersion: bundle.SchemaVersion, Version: "experiment", Algorithm: bundle.AlgoGreedy,
		DefaultStreams: 2, MinStreams: 1, DefaultThreshold: 8, ClusterFactor: 1,
	})}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RollbackBundle(); err != nil {
		t.Fatal(err)
	}
	wantActs(t, reg, `policy_bundle_activations_total{result="activated"} 1`,
		`policy_bundle_activations_total{result="rolled_back"} 1`)

	replica := newGreedy(t, 50, 4)
	rreg := obs.NewRegistry()
	replica.Instrument(rreg, nil)
	for i, op := range wal.ops {
		if err := replica.ApplyLogged(op, wal.payloads[i]); err != nil {
			t.Fatalf("replay %s: %v", op, err)
		}
	}
	if got := replica.ActiveBundle().Version; got != BootstrapBundleVersion {
		t.Fatalf("replayed rollback landed on %q, want %q", got, BootstrapBundleVersion)
	}
	wantActs(t, rreg, `policy_bundle_activations_total{result="activated"} 2`)
}

// wantActs checks that the scrape has exactly the given activation lines.
func wantActs(t *testing.T, reg *obs.Registry, want ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "policy_bundle_activations_total{") {
			got = append(got, line)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("activation counts:\n got  %q\n want %q", got, want)
	}
}
