package policyhttp

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"policyflow/internal/policy"
)

func TestClientDecodesServerErrors(t *testing.T) {
	for _, mode := range []string{"json", "xml"} {
		t.Run(mode, func(t *testing.T) {
			ts, _ := newTestServer(t)
			var c *Client
			if mode == "xml" {
				c = NewClient(ts.URL, WithXML())
			} else {
				c = NewClient(ts.URL)
			}
			// Empty transfer list -> structured error body.
			_, err := c.AdviseTransfers(nil)
			if err == nil {
				t.Fatal("no error for empty request")
			}
			if !strings.Contains(err.Error(), "empty request") {
				t.Fatalf("error body not decoded: %v", err)
			}
		})
	}
}

func TestClientAgainstNonPolicyServer(t *testing.T) {
	// A server that returns plain-text errors (no ErrorDoc).
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	_, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")})
	if err == nil || !strings.Contains(err.Error(), "418") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Healthz(); err == nil {
		t.Fatal("health against teapot succeeded")
	}
}

func TestClientConnectionRefused(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens there
	if _, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")}); err == nil {
		t.Fatal("no error for refused connection")
	}
	if _, err := c.Dump(); err == nil {
		t.Fatal("dump succeeded against nothing")
	}
	if _, err := c.Execute(context.Background(), policy.OpImportState, &policy.StateDump{}); err == nil {
		t.Fatal("restore succeeded against nothing")
	}
	if _, err := c.State(); err == nil {
		t.Fatal("state succeeded against nothing")
	}
	if _, err := c.ReportCleanups(policy.CleanupReport{CleanupIDs: []string{"x"}}); err == nil {
		t.Fatal("report succeeded against nothing")
	}
}

func TestRestoreMalformedBody(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/state/restore", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestReplicatedStateAndThreshold: a threshold set through the client
// lands on the primary and reaches the standby with its next sync; the
// leader it followed serves the state.
func TestReplicatedStateAndThreshold(t *testing.T) {
	p := newSyncedPair(t)
	if _, err := p.rc.Execute(context.Background(), policy.OpSetThreshold,
		policy.ThresholdOp{SourceHost: "a.example.org", DestHost: "b.example.org", Max: 7}); err != nil {
		t.Fatal(err)
	}
	if err := p.syncers[1].SyncOnce(); err != nil {
		t.Fatal(err)
	}
	// Both nodes hold the threshold.
	for i, svc := range p.svcs {
		adv, err := svc.AdviseTransfers([]policy.TransferSpec{{
			RequestID: "r", WorkflowID: "wf",
			SourceURL: "gsiftp://a.example.org/f", DestURL: "file://b.example.org/f",
			RequestedStreams: 50,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if adv.Transfers[0].Streams != 7 {
			t.Fatalf("replica %d threshold not applied: %d", i, adv.Transfers[0].Streams)
		}
	}
	st, err := p.rc.replicas[p.rc.Leader()].State()
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 1 { // the leader holds the one transfer advised
		// directly against it above
		t.Fatalf("state = %+v", st)
	}
	if _, err := p.rc.AdviseCleanups([]policy.CleanupSpec{{
		RequestID: "c", WorkflowID: "wf", FileURL: "file://b.example.org/f",
	}}); err != nil {
		t.Fatal(err)
	}
	if p.rc.LastAckReplica() != 0 {
		t.Fatalf("cleanup acked by replica %d, want the primary", p.rc.LastAckReplica())
	}
}
