package policyhttp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"policyflow/internal/policy"
)

const wireGolden = "testdata/wire.golden"

// wireLog is a RoundTripper that serves each request in-process on h and
// logs the exchange: method, path, request Content-Type and body, reply
// status, Content-Type and body. Bodies are logged byte for byte, each
// after its length.
type wireLog struct {
	h   http.Handler
	out bytes.Buffer
}

func (l *wireLog) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, req)
	reply := rec.Body.Bytes()
	fmt.Fprintf(&l.out, "=== %s %s\n> %q %d bytes\n%s\n< %d %q %d bytes\n%s\n",
		req.Method, req.URL.RequestURI(), req.Header.Get("Content-Type"), len(body), body,
		rec.Code, rec.Header().Get("Content-Type"), len(reply), reply)
	return rec.Result(), nil
}

// TestWireGolden pins the bytes of the RESTful interface: one
// deterministic script through Client, over JSON and over XML, covering
// every route of the op table (one of them refused) and the state, lease,
// bundle and dump reads, compared exchange by exchange with
// testdata/wire.golden. Nothing in the script depends on wall time, so
// nothing is masked. A change to a wire document fails here; -update
// rewrites the file when one is meant.
func TestWireGolden(t *testing.T) {
	var got bytes.Buffer
	for _, useXML := range []bool{false, true} {
		format := "json"
		if useXML {
			format = "xml"
		}
		fmt.Fprintf(&got, "##### %s\n", format)
		got.Write(runWireScript(t, useXML))
	}
	if *update {
		if err := os.WriteFile(wireGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire exchanges differ from %s (run with -update if intended):\n%s",
			wireGolden, lineDiff(string(want), got.String()))
	}
}

// runWireScript drives the script through a client of a fresh server and
// returns the logged exchanges.
func runWireScript(t *testing.T, useXML bool) []byte {
	t.Helper()
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 4
	cfg.LeaseTTL = 10
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := &wireLog{h: NewServer(svc, nil)}
	opts := []ClientOption{WithTransport(wire), WithRetry(RetryPolicy{MaxAttempts: 1})}
	if useXML {
		opts = append(opts, WithXML())
	}
	c := NewClient("http://policy.test", opts...)
	ctx := context.Background()
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	dup := testSpec(1, "wf1")
	dup.RequestID = "req-1-dup"
	must(c.Execute(ctx, policy.OpBumpEpoch, policy.EpochOp{Epoch: 2}))
	must(c.Execute(ctx, policy.OpSetThreshold,
		policy.ThresholdOp{SourceHost: "src.example.org", DestHost: "dst.example.org", Max: 3}))
	must(c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), dup, testSpec(2, "wf1"), testSpec(3, "wf2")}))
	must(c.ReportTransfers(policy.CompletionReport{
		TransferIDs: []string{"t-00000001", "t-unknown"}, FailedIDs: []string{"t-00000002"},
		Timings: []policy.TransferTiming{{TransferID: "t-00000001", Seconds: 1.5}}}))
	again := testSpec(1, "wf2")
	again.RequestID = "req-1-wf2"
	must(c.AdviseTransfers([]policy.TransferSpec{again}))
	must(c.AdviseCleanups([]policy.CleanupSpec{
		{RequestID: "c1", WorkflowID: "wf1", FileURL: dup.DestURL},
		{RequestID: "c2", WorkflowID: "wf1", FileURL: testSpec(2, "").DestURL}}))
	must(c.ReportCleanups(policy.CleanupReport{CleanupIDs: []string{"c-00000002", "c-00000099"}}))
	must(c.Execute(ctx, policy.OpRenewLease, policy.LeaseOp{WorkflowID: "wf1"}))
	must(c.Execute(ctx, policy.OpAdvanceClock, policy.ClockOp{Now: 5}))
	must(c.Leases())
	must(c.Execute(ctx, policy.OpAdvanceClock, policy.ClockOp{Now: 100}))
	must(c.Execute(ctx, policy.OpActivateBundle, policy.BundleOp{Version: policy.BootstrapBundleVersion}))
	if !useXML {
		must(c.PushBundle([]byte(testBundleDoc)))
		must(c.Execute(ctx, policy.OpActivateBundle, policy.BundleOp{Version: "api-v1"}))
		must(c.Execute(ctx, policy.OpActivateBundle, policy.BundleOp{Rollback: true}))
	}
	if _, err := c.AdviseTransfers([]policy.TransferSpec{{RequestID: "bad"}}); !IsRejection(err) {
		t.Fatalf("invalid transfer list: %v, want a rejection", err)
	}
	must(c.State())
	must(c.Bundles())
	dump, err := c.Dump()
	must(dump, err)
	must(c.Execute(ctx, policy.OpImportState, dump))
	must(c.State())
	return wire.out.Bytes()
}
