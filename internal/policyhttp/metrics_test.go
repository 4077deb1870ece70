package policyhttp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

func TestConfigEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, frag := range []string{`"algorithm":"greedy"`, `"defaultThreshold":50`, `"defaultStreams":4`} {
		if !strings.Contains(string(body), frag) {
			t.Errorf("config missing %s: %s", frag, body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, frag := range []string{
		"policy_transfers_advised_total 2",
		"policy_transfers_suppressed_total 0",
		"policy_transfers_in_flight 1",
		"policy_staged_files 1",
		`policy_streams_allocated{src="src.example.org",dst="dst.example.org"} 4`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("metrics missing %q:\n%s", frag, text)
		}
	}
}

// validatePrometheusFormat parses a text-format scrape and fails the test
// unless it satisfies the Prometheus exposition format: every sample line
// must belong to a family announced by preceding # HELP and # TYPE
// comments, histogram families must expose only _bucket/_sum/_count
// series, and every sample value must parse as a float.
func validatePrometheusFormat(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	help := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, h, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok || h == "" {
				t.Errorf("line %d: HELP without text: %q", i+1, line)
			}
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, ok := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("line %d: unknown metric kind %q", i+1, kind)
			}
			if !help[name] {
				t.Errorf("line %d: TYPE for %s precedes its HELP", i+1, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, name)
			}
			types[name] = kind
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unrecognized comment: %q", i+1, line)
		default:
			name := line
			if j := strings.IndexAny(line, "{ "); j >= 0 {
				name = line[:j]
			}
			fam := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
					fam = base
				}
			}
			kind, ok := types[fam]
			if !ok {
				t.Errorf("line %d: sample %s has no preceding HELP/TYPE", i+1, name)
				continue
			}
			if kind == "histogram" && fam == name {
				t.Errorf("line %d: bare series %s under histogram family", i+1, name)
			}
			val := line[strings.LastIndex(line, " ")+1:]
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Errorf("line %d: sample value %q: %v", i+1, val, err)
			}
		}
	}
	return types
}

// TestMetricsPrometheusFormat drives HTTP traffic, then checks the
// /v1/metrics scrape is format-valid and carries per-endpoint request
// latency histograms, per-operation policy latency and per-host-pair
// stream allocation.
func TestMetricsPrometheusFormat(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 4
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServerWith(svc, nil, reg, nil))
	defer ts.Close()
	c := NewClient(ts.URL)

	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(ts.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	types := validatePrometheusFormat(t, text)
	for fam, kind := range map[string]string{
		"http_requests_total":        "counter",
		"http_request_seconds":       "histogram",
		"policy_request_seconds":     "histogram",
		"policy_transfers_in_flight": "gauge",
		"policy_streams_allocated":   "gauge",
	} {
		if types[fam] != kind {
			t.Errorf("family %s: type %q, want %q", fam, types[fam], kind)
		}
	}
	for _, frag := range []string{
		// Per-endpoint request accounting, exact counts: the PTT talks to
		// the service in-process, so only our own calls are counted.
		`http_requests_total{endpoint="POST /v1/transfers",code="200"} 1`,
		`http_requests_total{endpoint="POST /v1/transfers/completed",code="200"} 1`,
		`http_requests_total{endpoint="unmatched",code="404"} 1`,
		`http_request_seconds_bucket{endpoint="POST /v1/transfers",le="+Inf"} 1`,
		`http_request_seconds_count{endpoint="POST /v1/transfers"} 1`,
		// Per-host-pair stream allocation.
		`policy_streams_allocated{src="src.example.org",dst="dst.example.org"} 4`,
		// Per-op policy service latency histograms.
		`policy_request_seconds_count{op="advise_transfers"}`,
		`policy_request_seconds_count{op="report_transfers"}`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("scrape missing %q", frag)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}
}

// metricName is the naming rule every exported family must obey: lowercase
// words joined by underscores, nothing else.
var metricName = regexp.MustCompile(`^[a-z_]+$`)

// TestMetricsConformance is the scrape self-check: after traffic has
// touched every endpoint class, each exported family must carry exactly
// one HELP and one TYPE line, every family and series name must match
// ^[a-z_]+$, and no series may be emitted twice. It guards against a
// hand-rolled exporter drifting out of the Prometheus exposition format
// as metrics are added.
func TestMetricsConformance(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewJSONLTracer(io.Discard)
	// Mirror the cmd/policyserver wiring so the drop counter is scraped.
	tracer.SetDropCounter(reg.Counter("obs_trace_dropped_total",
		"Trace events discarded because the JSONL sink failed.").With())
	ts := httptest.NewServer(NewServerWith(svc, nil, reg, tracer))
	defer ts.Close()
	c := NewClient(ts.URL)

	// One request per endpoint class, including an error and a 404, so
	// every label dimension the server knows materializes in the scrape.
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{
		TransferIDs: []string{adv.Transfers[0].ID},
		FailedIDs:   []string{adv.Transfers[1].ID},
	}); err != nil {
		t.Fatal(err)
	}
	cadv, err := c.AdviseCleanups([]policy.CleanupSpec{{RequestID: "c1", WorkflowID: "wf1", FileURL: testSpec(1, "wf1").DestURL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cadv.Cleanups) == 1 {
		if _, err := c.ReportCleanups(policy.CleanupReport{CleanupIDs: []string{cadv.Cleanups[0].ID}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "src.example.org", DestHost: "dst.example.org", Max: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decisions(0, "", "", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdviseTransfers(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if resp, err := http.Get(ts.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	validatePrometheusFormat(t, text)

	helpCount := map[string]int{}
	typeCount := map[string]int{}
	seen := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !metricName.MatchString(name) {
				t.Errorf("line %d: family name %q violates [a-z_]+", i+1, name)
			}
			helpCount[name]++
		case strings.HasPrefix(line, "# TYPE "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			typeCount[name]++
		default:
			name := line
			if j := strings.IndexAny(line, "{ "); j >= 0 {
				name = line[:j]
			}
			if !metricName.MatchString(name) {
				t.Errorf("line %d: series name %q violates [a-z_]+", i+1, name)
			}
			series := line[:strings.LastIndex(line, " ")]
			if seen[series] {
				t.Errorf("line %d: series %s emitted twice", i+1, series)
			}
			seen[series] = true
		}
	}
	for name, n := range helpCount {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines", name, n)
		}
		if typeCount[name] != 1 {
			t.Errorf("family %s has %d TYPE lines", name, typeCount[name])
		}
	}
	for _, fam := range []string{"obs_trace_dropped_total", "http_requests_total", "policy_request_seconds"} {
		if helpCount[fam] == 0 {
			t.Errorf("scrape missing family %s", fam)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}
}

// TestServerTraceEvents attaches a JSONL tracer to the HTTP server and
// verifies the lifecycle events a client's calls produce decode back in
// order.
func TestServerTraceEvents(t *testing.T) {
	cfg := policy.DefaultConfig()
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewJSONLTracer(&buf)
	ts := httptest.NewServer(NewServerWith(svc, nil, obs.NewRegistry(), tracer))
	defer ts.Close()
	c := NewClient(ts.URL)

	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	id := adv.Transfers[0].ID
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{id}}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		if e.TransferID == id {
			got = append(got, e.Type)
		}
	}
	want := []string{obs.EventSubmitted, obs.EventAdvised, obs.EventCompleted}
	if len(got) != len(want) {
		t.Fatalf("event types = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event types = %v, want %v", got, want)
		}
	}
	for _, e := range events {
		if e.Type == obs.EventAdvised && e.TransferID == id {
			if e.WorkflowID != "wf1" || e.SourceHost == "" || e.DestHost == "" || e.Streams == 0 {
				t.Errorf("advised event missing context: %+v", e)
			}
		}
	}
}

// TestConcurrentClients hammers the service from many goroutines; run
// under -race this verifies the full HTTP + rule-engine path is
// thread-safe, and the final accounting must balance.
func TestConcurrentClients(t *testing.T) {
	ts, svc := newTestServer(t)
	const workers = 8
	const perWorker = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(ts.URL)
			for i := 0; i < perWorker; i++ {
				spec := policy.TransferSpec{
					RequestID:  fmt.Sprintf("w%d-r%d", w, i),
					WorkflowID: fmt.Sprintf("wf%d", w),
					SourceURL:  fmt.Sprintf("gsiftp://src.example.org/w%d/f%d", w, i),
					DestURL:    fmt.Sprintf("file://dst.example.org/w%d/f%d", w, i),
				}
				adv, err := c.AdviseTransfers([]policy.TransferSpec{spec})
				if err != nil {
					errs <- err
					return
				}
				if len(adv.Transfers) != 1 {
					errs <- fmt.Errorf("worker %d: advice %+v", w, adv)
					return
				}
				if _, err := c.ReportTransfers(policy.CompletionReport{
					TransferIDs: []string{adv.Transfers[0].ID},
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := svc.Snapshot()
	if snap.InFlight != 0 {
		t.Fatalf("in-flight after all completions: %+v", snap)
	}
	if snap.StagedResources != workers*perWorker {
		t.Fatalf("staged = %d, want %d", snap.StagedResources, workers*perWorker)
	}
	for _, p := range snap.Pairs {
		if p.Allocated != 0 {
			t.Fatalf("streams leaked: %+v", p)
		}
	}
}
