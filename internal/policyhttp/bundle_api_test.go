package policyhttp

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"policyflow/internal/policy"
)

const testBundleDoc = `{
  "schemaVersion": 1,
  "version": "api-v1",
  "description": "api test bundle",
  "algorithm": "greedy",
  "defaultStreams": 2,
  "minStreams": 1,
  "defaultThreshold": 7,
  "clusterFactor": 1,
  "pairThresholds": [
    {"sourceHost": "src.example.org", "destHost": "dst.example.org", "max": 5}
  ]
}`

// TestBundleLifecycleOverHTTP walks the client through push, status,
// activate, decision attribution and rollback.
func TestBundleLifecycleOverHTTP(t *testing.T) {
	ts, svc := newTestServer(t)
	c := NewClient(ts.URL)

	info, err := c.PushBundle([]byte(testBundleDoc))
	if err != nil {
		t.Fatalf("PushBundle: %v", err)
	}
	if !info.Staged || info.Active || info.Version != "api-v1" {
		t.Fatalf("pushed info %+v", info)
	}

	st, err := c.Bundles()
	if err != nil {
		t.Fatalf("Bundles: %v", err)
	}
	if st.Active.Version != policy.BootstrapBundleVersion || len(st.Staged) != 1 {
		t.Fatalf("status before activation %+v", st)
	}

	info, err = policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Version: "api-v1"})
	if err != nil {
		t.Fatalf("ActivateBundle: %v", err)
	}
	if !info.Active || info.Version != "api-v1" {
		t.Fatalf("activation info %+v", info)
	}

	// Work done now is attributed to api-v1 and filterable by it.
	if _, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Decisions(0, "", "", "", "api-v1")
	if err != nil {
		t.Fatalf("Decisions: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("no decisions attributed to api-v1")
	}
	for _, rec := range recs {
		if rec.Bundle != "api-v1" {
			t.Fatalf("bundle filter leaked record %+v", rec)
		}
	}
	if recs, err = c.Decisions(0, "", "", "", "no-such-bundle"); err != nil || len(recs) != 0 {
		t.Fatalf("filter for unknown bundle: %d records, err %v", len(recs), err)
	}

	info, err = policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Rollback: true})
	if err != nil {
		t.Fatalf("RollbackBundle: %v", err)
	}
	if info.Version != policy.BootstrapBundleVersion {
		t.Fatalf("rollback landed on %q", info.Version)
	}
	if got := svc.ActiveBundle().Version; got != policy.BootstrapBundleVersion {
		t.Fatalf("service active bundle %q after rollback", got)
	}
}

// TestBundlePushRejectsMalformedWith400 pins the status mapping: invalid
// documents are client errors, never 500s.
func TestBundlePushRejectsMalformedWith400(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := map[string]string{
		"syntax":         `{"schemaVersion": 1,`,
		"unknown-schema": `{"schemaVersion": 99, "version": "x", "algorithm": "greedy", "defaultStreams": 1, "minStreams": 1, "defaultThreshold": 1, "clusterFactor": 1}`,
		"unknown-field":  `{"schemaVersion": 1, "version": "x", "algorithm": "greedy", "defaultStreams": 1, "minStreams": 1, "defaultThreshold": 1, "clusterFactor": 1, "surprise": 1}`,
		"bad-values":     `{"schemaVersion": 1, "version": "x", "algorithm": "greedy", "defaultStreams": 0, "minStreams": 1, "defaultThreshold": 1, "clusterFactor": 1}`,
	}
	for name, doc := range cases {
		for _, path := range []string{"/v1/bundles", "/v1/bundles/activate"} {
			body := doc
			method := http.MethodPut
			if path == "/v1/bundles/activate" {
				method = http.MethodPost
				if name == "syntax" {
					continue // the envelope itself would be unparseable
				}
				body = fmt.Sprintf(`{"bundle": %s}`, doc)
			}
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s (%s): status %d, want 400", method, path, name, resp.StatusCode)
			}
		}
	}
}

// TestBundleActivateRequiresExactlyOneMode pins the request contract.
func TestBundleActivateRequiresExactlyOneMode(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		`{}`,
		fmt.Sprintf(`{"version": "v", "bundle": %s}`, testBundleDoc),
		`{"version": "v", "rollback": true}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/bundles/activate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("activate %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestBundlePushIsJSONOnly: bundle documents are canonical JSON (the
// checksum is defined over it), so XML payloads are refused up front.
func TestBundlePushIsJSONOnly(t *testing.T) {
	ts, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/bundles", strings.NewReader("<bundle/>"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("XML push: status %d, want 415", resp.StatusCode)
	}
	if _, err := NewClient(ts.URL, WithXML()).PushBundle([]byte(testBundleDoc)); err == nil {
		t.Fatal("XML-mode client pushed a bundle")
	}
}

// TestBundleStatusETag: the inventory answers 304 when the active
// checksum has not moved, and re-validates after an activation.
func TestBundleStatusETag(t *testing.T) {
	ts, _ := newTestServer(t)

	get := func(etag string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/bundles", nil)
		if err != nil {
			return nil, err
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return http.DefaultClient.Do(req)
	}

	resp, err := get("")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("GET /v1/bundles: status %d, ETag %q", resp.StatusCode, etag)
	}

	resp, err = get(etag)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET with current ETag: status %d, want 304", resp.StatusCode)
	}

	c := NewClient(ts.URL)
	if _, err := policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Doc: []byte(testBundleDoc)}); err != nil {
		t.Fatalf("ActivateBundleDoc: %v", err)
	}
	resp, err = get(etag)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conditional GET after activation: status %d, want 200", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("api-v1")) {
		t.Fatalf("inventory after activation misses api-v1: %s", buf.String())
	}
}
