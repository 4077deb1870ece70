package policy

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"policyflow/internal/bundle"
)

func benchBundleDoc(b *testing.B, version string) []byte {
	b.Helper()
	doc, err := json.Marshal(&bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          version,
		Algorithm:        bundle.AlgoGreedy,
		DefaultStreams:   4,
		MinStreams:       1,
		DefaultThreshold: 50,
		ClusterFactor:    1,
		PairThresholds: []bundle.PairThreshold{
			{SourceHost: "src-a.example.org", DestHost: "dst-a.example.org", Max: 10},
			{SourceHost: "src-b.example.org", DestHost: "dst-b.example.org", Max: 20},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

// BenchmarkBundleActivate measures one state-changing bundle activation:
// parse, validate, checksum, threshold-fact rewrite and tunables swap
// (no WAL attached — the append cost is the durable package's series).
// Two documents alternate so every iteration transitions state instead
// of short-circuiting on the checksum no-op path.
func BenchmarkBundleActivate(b *testing.B) {
	docs := [][]byte{benchBundleDoc(b, "bench-v1"), benchBundleDoc(b, "bench-v2")}
	svc, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Call[*BundleInfo](context.Background(), svc, OpActivateBundle, BundleOp{Doc: docs[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdviseUnderBundleSnapshot measures the advise/report round
// trip while the rules read their tunables from an activated bundle — the
// companion series to the plain advise hot path under v0. The name is
// kept for the committed trajectory series.
func BenchmarkAdviseUnderBundleSnapshot(b *testing.B) {
	svc, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Call[*BundleInfo](context.Background(), svc, OpActivateBundle, BundleOp{Doc: benchBundleDoc(b, "bench-snapshot")}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := svc.AdviseTransfers([]TransferSpec{{
			RequestID:  fmt.Sprintf("bench-%d", i),
			WorkflowID: "bench",
			SourceURL:  fmt.Sprintf("gsiftp://bench-src.example.org/data/f%d", i),
			DestURL:    fmt.Sprintf("file://bench-dst.example.org/scratch/f%d", i),
		}})
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(adv.Transfers))
		for j, tr := range adv.Transfers {
			ids[j] = tr.ID
		}
		if _, err := svc.ReportTransfers(CompletionReport{TransferIDs: ids}); err != nil {
			b.Fatal(err)
		}
	}
}
