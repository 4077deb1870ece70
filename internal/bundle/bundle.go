// Package bundle defines the policy-as-data encoding for the engine's
// tunable surface, following OPA's bundle architecture: policy ships as a
// versioned, checksummed document that is distributed out of band and
// activated atomically, and every decision is attributable to the bundle
// version that produced it.
//
// A bundle captures the policy service's whole tunable surface: the
// allocation algorithm, default/minimum stream counts, the default and
// per-host-pair stream thresholds, the workflow clustering factor, and the
// priority weighting factors. The service compiles in only the bootstrap
// values of the first four; pair thresholds and weighting come from a
// bundle alone. The encoding is
// schema-versioned JSON; Parse rejects unknown schema versions and unknown
// fields so a bundle written for a future engine never half-applies.
//
// This package is deliberately free of any dependency on internal/policy:
// the policy layer imports it, embeds the compiled-in defaults as the v0
// bundle, and applies activated bundles to its working memory.
package bundle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// SchemaVersion identifies the bundle document layout this engine
// understands. Documents declaring any other version are rejected.
const SchemaVersion = 1

// ErrInvalid is wrapped by every Parse and Validate failure, so callers
// can classify any bundle problem — malformed JSON, unknown schema
// version, out-of-range field — as a deterministic client error rather
// than a server fault.
var ErrInvalid = errors.New("invalid bundle")

// Allocation algorithm names a bundle may select. They mirror the policy
// service's Algorithm values; the service re-validates on activation.
const (
	AlgoGreedy      = "greedy"
	AlgoBalanced    = "balanced"
	AlgoPassthrough = "none"
)

// PairThreshold pins the maximum parallel streams between one host pair.
type PairThreshold struct {
	SourceHost string `json:"sourceHost" xml:"sourceHost"`
	DestHost   string `json:"destHost" xml:"destHost"`
	Max        int    `json:"max" xml:"max"`
}

// Priority holds the priority-weighting factors: transfers above the
// median priority have their grants scaled by BoostFactor, those below by
// ReduceFactor. Boost 1 and reduce 1 (or 0) disable weighting.
type Priority struct {
	BoostFactor  float64 `json:"boostFactor" xml:"boostFactor"`
	ReduceFactor float64 `json:"reduceFactor" xml:"reduceFactor"`
}

// Bundle is one versioned policy document.
type Bundle struct {
	// SchemaVersion must equal the package's SchemaVersion constant.
	SchemaVersion int `json:"schemaVersion" xml:"schemaVersion"`
	// Version names this bundle (e.g. "v0", "2026-08-tuning"). Decision
	// records and replicas identify the active policy by this string.
	Version string `json:"version" xml:"version"`
	// Description is free-form operator documentation.
	Description string `json:"description,omitempty" xml:"description,omitempty"`

	// Algorithm selects stream allocation: greedy, balanced, or none.
	Algorithm string `json:"algorithm" xml:"algorithm"`
	// DefaultStreams is granted to transfers that request no count.
	DefaultStreams int `json:"defaultStreams" xml:"defaultStreams"`
	// MinStreams floors every grant.
	MinStreams int `json:"minStreams" xml:"minStreams"`
	// DefaultThreshold caps concurrent streams per host pair unless a
	// PairThreshold overrides it.
	DefaultThreshold int `json:"defaultThreshold" xml:"defaultThreshold"`
	// ClusterFactor divides pair thresholds into per-cluster shares under
	// balanced allocation.
	ClusterFactor int `json:"clusterFactor" xml:"clusterFactor"`
	// PairThresholds override DefaultThreshold for specific host pairs.
	PairThresholds []PairThreshold `json:"pairThresholds,omitempty" xml:"pairThresholds>pairThreshold,omitempty"`
	// Priority, when present, tunes priority weighting; absent disables
	// weighting.
	Priority *Priority `json:"priority,omitempty" xml:"priority,omitempty"`
}

// Parse decodes and validates a bundle document. Unknown fields and
// unknown schema versions are rejected; every error wraps ErrInvalid.
func Parse(data []byte) (*Bundle, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Bundle
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%w: parse: %v", ErrInvalid, err)
	}
	// A second document after the first means trailing garbage.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after bundle document", ErrInvalid)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	b.normalize()
	return &b, nil
}

// Validate checks every field against the schema. Errors wrap ErrInvalid.
func (b *Bundle) Validate() error {
	if b.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: unsupported schema version %d (want %d)",
			ErrInvalid, b.SchemaVersion, SchemaVersion)
	}
	if b.Version == "" {
		return fmt.Errorf("%w: version is required", ErrInvalid)
	}
	switch b.Algorithm {
	case AlgoGreedy, AlgoBalanced, AlgoPassthrough:
	default:
		return fmt.Errorf("%w: unknown algorithm %q", ErrInvalid, b.Algorithm)
	}
	if b.DefaultStreams < 1 {
		return fmt.Errorf("%w: defaultStreams must be >= 1, got %d", ErrInvalid, b.DefaultStreams)
	}
	if b.MinStreams < 1 {
		return fmt.Errorf("%w: minStreams must be >= 1, got %d", ErrInvalid, b.MinStreams)
	}
	if b.MinStreams > b.DefaultStreams {
		return fmt.Errorf("%w: minStreams %d exceeds defaultStreams %d",
			ErrInvalid, b.MinStreams, b.DefaultStreams)
	}
	if b.DefaultThreshold < 1 {
		return fmt.Errorf("%w: defaultThreshold must be >= 1, got %d", ErrInvalid, b.DefaultThreshold)
	}
	if b.ClusterFactor < 1 {
		return fmt.Errorf("%w: clusterFactor must be >= 1, got %d", ErrInvalid, b.ClusterFactor)
	}
	seen := make(map[[2]string]bool, len(b.PairThresholds))
	for _, pt := range b.PairThresholds {
		if pt.SourceHost == "" || pt.DestHost == "" {
			return fmt.Errorf("%w: pair threshold with empty host", ErrInvalid)
		}
		if pt.Max < 1 {
			return fmt.Errorf("%w: pair threshold %s->%s max must be >= 1, got %d",
				ErrInvalid, pt.SourceHost, pt.DestHost, pt.Max)
		}
		key := [2]string{pt.SourceHost, pt.DestHost}
		if seen[key] {
			return fmt.Errorf("%w: duplicate pair threshold %s->%s",
				ErrInvalid, pt.SourceHost, pt.DestHost)
		}
		seen[key] = true
	}
	if p := b.Priority; p != nil {
		if p.BoostFactor < 1 {
			return fmt.Errorf("%w: priority boostFactor must be >= 1, got %g", ErrInvalid, p.BoostFactor)
		}
		if p.ReduceFactor < 0 || p.ReduceFactor > 1 {
			return fmt.Errorf("%w: priority reduceFactor must be in [0,1], got %g", ErrInvalid, p.ReduceFactor)
		}
	}
	return nil
}

// normalize puts the bundle in canonical order so logically equal bundles
// checksum identically regardless of author field ordering.
func (b *Bundle) normalize() {
	sort.Slice(b.PairThresholds, func(i, j int) bool {
		a, c := b.PairThresholds[i], b.PairThresholds[j]
		if a.SourceHost != c.SourceHost {
			return a.SourceHost < c.SourceHost
		}
		return a.DestHost < c.DestHost
	})
}

// Canonical renders the bundle's canonical JSON form: normalized pair
// order, Go's deterministic struct-field ordering, no indentation. The
// checksum is computed over this form.
func (b *Bundle) Canonical() []byte {
	cp := *b
	cp.PairThresholds = append([]PairThreshold(nil), b.PairThresholds...)
	cp.normalize()
	data, err := json.Marshal(&cp)
	if err != nil {
		// Bundle has no cyclic or non-marshalable fields; unreachable.
		panic(fmt.Sprintf("bundle: canonical encode: %v", err))
	}
	return data
}

// Checksum returns the hex SHA-256 of the canonical encoding. Two bundles
// with equal checksums carry identical policy.
func (b *Bundle) Checksum() string {
	sum := sha256.Sum256(b.Canonical())
	return hex.EncodeToString(sum[:])
}
