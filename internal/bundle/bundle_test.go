package bundle

import (
	"errors"
	"strings"
	"testing"
)

func valid() *Bundle {
	return &Bundle{
		SchemaVersion:    SchemaVersion,
		Version:          "v1",
		Algorithm:        AlgoGreedy,
		DefaultStreams:   4,
		MinStreams:       1,
		DefaultThreshold: 50,
		ClusterFactor:    1,
		PairThresholds: []PairThreshold{
			{SourceHost: "b.example.org", DestHost: "a.example.org", Max: 8},
			{SourceHost: "a.example.org", DestHost: "b.example.org", Max: 4},
		},
	}
}

func TestParseRoundTrip(t *testing.T) {
	b := valid()
	got, err := Parse(b.Canonical())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Version != "v1" || got.Algorithm != AlgoGreedy || len(got.PairThresholds) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Checksum() != b.Checksum() {
		t.Fatalf("checksum changed across round trip")
	}
}

func TestChecksumIgnoresPairOrder(t *testing.T) {
	a := valid()
	b := valid()
	b.PairThresholds[0], b.PairThresholds[1] = b.PairThresholds[1], b.PairThresholds[0]
	if a.Checksum() != b.Checksum() {
		t.Fatalf("checksum depends on pair threshold order")
	}
	c := valid()
	c.PairThresholds[0].Max = 9
	if a.Checksum() == c.Checksum() {
		t.Fatalf("checksum missed a policy difference")
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"malformed", `{"schemaVersion": 1,`, "parse"},
		{"unknown field", `{"schemaVersion":1,"version":"v1","algorithm":"greedy","defaultStreams":4,"minStreams":1,"defaultThreshold":50,"clusterFactor":1,"surprise":true}`, "parse"},
		{"unknown schema", `{"schemaVersion":99,"version":"v1","algorithm":"greedy","defaultStreams":4,"minStreams":1,"defaultThreshold":50,"clusterFactor":1}`, "schema version"},
		{"missing version", `{"schemaVersion":1,"algorithm":"greedy","defaultStreams":4,"minStreams":1,"defaultThreshold":50,"clusterFactor":1}`, "version is required"},
		{"bad algorithm", `{"schemaVersion":1,"version":"v1","algorithm":"psychic","defaultStreams":4,"minStreams":1,"defaultThreshold":50,"clusterFactor":1}`, "unknown algorithm"},
		{"zero threshold", `{"schemaVersion":1,"version":"v1","algorithm":"greedy","defaultStreams":4,"minStreams":1,"defaultThreshold":0,"clusterFactor":1}`, "defaultThreshold"},
		{"min above default", `{"schemaVersion":1,"version":"v1","algorithm":"greedy","defaultStreams":2,"minStreams":3,"defaultThreshold":50,"clusterFactor":1}`, "minStreams"},
		{"trailing data", `{"schemaVersion":1,"version":"v1","algorithm":"greedy","defaultStreams":4,"minStreams":1,"defaultThreshold":50,"clusterFactor":1}{"extra":1}`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.data))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error does not wrap ErrInvalid: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateDuplicatePair(t *testing.T) {
	b := valid()
	b.PairThresholds = append(b.PairThresholds, b.PairThresholds[0])
	if err := b.Validate(); err == nil || !errors.Is(err, ErrInvalid) {
		t.Fatalf("duplicate pair accepted: %v", err)
	}
}

func TestValidatePriorityBounds(t *testing.T) {
	b := valid()
	b.Priority = &Priority{BoostFactor: 0.5, ReduceFactor: 0.5}
	if err := b.Validate(); err == nil {
		t.Fatal("boost < 1 accepted")
	}
	b.Priority = &Priority{BoostFactor: 2, ReduceFactor: 1.5}
	if err := b.Validate(); err == nil {
		t.Fatal("reduce > 1 accepted")
	}
	b.Priority = &Priority{BoostFactor: 1.5, ReduceFactor: 0.5}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid priority rejected: %v", err)
	}
}
