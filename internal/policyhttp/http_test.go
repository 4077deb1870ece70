package policyhttp

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"policyflow/internal/policy"
)

func newTestServer(t *testing.T) (*httptest.Server, *policy.Service) {
	t.Helper()
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 4
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatalf("policy.New: %v", err)
	}
	ts := httptest.NewServer(NewServer(svc, nil))
	t.Cleanup(ts.Close)
	return ts, svc
}

func testSpec(i int, wf string) policy.TransferSpec {
	return policy.TransferSpec{
		RequestID:  fmt.Sprintf("req-%d", i),
		WorkflowID: wf,
		SourceURL:  fmt.Sprintf("gsiftp://src.example.org/data/f%d", i),
		DestURL:    fmt.Sprintf("file://dst.example.org/scratch/f%d", i),
	}
}

func TestTransferRoundTripJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	testTransferRoundTrip(t, c)
}

func TestTransferRoundTripXML(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL, WithXML())
	testTransferRoundTrip(t, c)
}

func testTransferRoundTrip(t *testing.T, c *Client) {
	t.Helper()
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1")})
	if err != nil {
		t.Fatalf("AdviseTransfers: %v", err)
	}
	if len(adv.Transfers) != 2 {
		t.Fatalf("transfers = %+v", adv)
	}
	for _, tr := range adv.Transfers {
		if tr.Streams != 4 || tr.GroupID == "" || tr.ID == "" {
			t.Fatalf("bad advice entry: %+v", tr)
		}
	}
	st, err := c.State()
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if st.InFlight != 2 {
		t.Fatalf("InFlight = %d", st.InFlight)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{
		TransferIDs: []string{adv.Transfers[0].ID, adv.Transfers[1].ID},
	}); err != nil {
		t.Fatalf("ReportTransfers: %v", err)
	}
	st, err = c.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 0 || st.StagedResources != 2 {
		t.Fatalf("state after completion = %+v", st)
	}
	// Duplicate of a staged file is removed.
	adv2, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv2.Transfers) != 0 || len(adv2.Removed) != 1 || adv2.Removed[0].Reason != "already-staged" {
		t.Fatalf("dup advice = %+v", adv2)
	}
}

func TestCleanupRoundTrip(t *testing.T) {
	for _, mode := range []string{"json", "xml"} {
		t.Run(mode, func(t *testing.T) {
			ts, _ := newTestServer(t)
			var c *Client
			if mode == "xml" {
				c = NewClient(ts.URL, WithXML())
			} else {
				c = NewClient(ts.URL)
			}
			adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
				t.Fatal(err)
			}
			cadv, err := c.AdviseCleanups([]policy.CleanupSpec{{
				RequestID: "c1", WorkflowID: "wf1", FileURL: testSpec(1, "").DestURL,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(cadv.Cleanups) != 1 {
				t.Fatalf("cleanups = %+v", cadv)
			}
			if _, err := c.ReportCleanups(policy.CleanupReport{CleanupIDs: []string{cadv.Cleanups[0].ID}}); err != nil {
				t.Fatal(err)
			}
			st, err := c.State()
			if err != nil {
				t.Fatal(err)
			}
			if st.TrackedFiles != 0 {
				t.Fatalf("resource survived cleanup: %+v", st)
			}
		})
	}
}

func TestSetThresholdEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "src.example.org", DestHost: "dst.example.org", Max: 2}); err != nil {
		t.Fatal(err)
	}
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Transfers[0].Streams != 2 {
		t.Fatalf("streams = %d, want 2", adv.Transfers[0].Streams)
	}
	// Invalid threshold rejected.
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 0}); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "", DestHost: "", Max: 5}); err == nil {
		t.Fatal("empty hosts accepted")
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	if err := NewClient(ts.URL).Healthz(); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	// Empty list -> 400.
	if _, err := c.AdviseTransfers(nil); err == nil {
		t.Fatal("empty request accepted")
	}
	// Malformed JSON -> 400.
	resp, err := http.Post(ts.URL+"/v1/transfers", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	// Unsupported media type -> 415.
	resp, err = http.Post(ts.URL+"/v1/transfers", "application/x-yaml", strings.NewReader("x: 1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("yaml: status %d", resp.StatusCode)
	}
	// Wrong method -> 405.
	resp, err = http.Get(ts.URL + "/v1/transfers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/transfers: status %d", resp.StatusCode)
	}
}

func TestContentNegotiation(t *testing.T) {
	ts, _ := newTestServer(t)
	// JSON request, XML response via Accept.
	body := `{"transfers":[{"requestId":"r1","workflowId":"wf1",` +
		`"sourceUrl":"gsiftp://s.example.org/f","destUrl":"file://d.example.org/f"}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/transfers", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/xml") {
		t.Fatalf("Content-Type = %q, want XML", ct)
	}
	var doc policy.TransferAdvice
	if err := xml.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode XML: %v", err)
	}
	if len(doc.Transfers) != 1 || doc.Transfers[0].RequestID != "r1" {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestAllSuppressedCleanupJSON: when every cleanup in a request is
// suppressed (wf1 cleans up a file wf2 still uses), the JSON reply carries
// an empty cleanups list, not null.
func TestAllSuppressedCleanupJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")}); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"cleanups":[{"requestId":"c1","workflowId":"wf1","fileUrl":%q}]}`, testSpec(1, "").DestURL)
	resp, err := http.Post(ts.URL+"/v1/cleanups", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(reply), `{"cleanups":[],"removed":[{`) {
		t.Fatalf("reply %d %s, want an empty cleanups list and one removed", resp.StatusCode, reply)
	}
}

func TestUnknownJSONFieldRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"transfers":[],"bogus":true}`
	resp, err := http.Post(ts.URL+"/v1/transfers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestWireFormatsStable(t *testing.T) {
	// Guard the wire contract: the JSON and XML encodings of a request
	// envelope keep their field names.
	req := TransferRequest{Transfers: []policy.TransferSpec{testSpec(1, "wf1")}}
	j, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"transfers"`, `"requestId"`, `"workflowId"`, `"sourceUrl"`, `"destUrl"`} {
		if !strings.Contains(string(j), field) {
			t.Errorf("JSON missing %s: %s", field, j)
		}
	}
	x, err := xml.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range []string{"<transferRequest>", "<transfers>", "<transfer>", "<sourceUrl>"} {
		if !strings.Contains(string(x), el) {
			t.Errorf("XML missing %s: %s", el, x)
		}
	}
}
