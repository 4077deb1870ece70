package policyhttp

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden and testdata/wire.golden from their scripts")

const metricsGolden = "testdata/metrics.golden"

// TestMetricsGolden pins the operator-visible metrics surface: one
// deterministic script against a server with admission control and a
// standby syncer, then a /v1/metrics scrape compared family by family
// (name, type, label sets, counter and gauge values) with
// testdata/metrics.golden. Histogram buckets and sums, and the wall-clock
// standby lag, are masked; histogram counts are kept.
func TestMetricsGolden(t *testing.T) {
	ts, ctl, syncer := newScriptedServer(t)
	runMetricsScript(t, NewClient(ts.URL), syncer)

	got := normalizeScrape(t, scrape(t, ts.URL, ctl))
	if *update {
		if err := os.MkdirAll(filepath.Dir(metricsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("metrics surface differs from %s (run with -update if intended):\n%s",
			metricsGolden, lineDiff(string(want), got))
	}
}

// newScriptedServer is a server wired like cmd/policyserver with
// admission control and a standby syncer, all instrumented on one
// registry. The syncer's peer is an empty server without a durable store.
func newScriptedServer(t *testing.T) (*httptest.Server, *admit.Controller, *StandbySyncer) {
	t.Helper()
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 4
	cfg.LeaseTTL = 60
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peerSvc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(NewServer(peerSvc, nil))
	t.Cleanup(peer.Close)

	reg := obs.NewRegistry()
	api := NewServerWith(svc, nil, reg, nil)
	ctl := NewAdmissionController(svc, admit.Config{})
	ctl.Instrument(reg)
	api.SetAdmission(ctl)
	syncer, err := NewStandbySyncer(svc, NewClient(peer.URL), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	syncer.Instrument(reg)
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ctl.Drain(ctx)
		ctl.Close()
	})
	return ts, ctl, syncer
}

// runMetricsScript drives one of each countable event through c.
func runMetricsScript(t *testing.T, c *Client, syncer *StandbySyncer) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(syncer.SyncOnce())

	dup := testSpec(1, "wf1")
	dup.RequestID = "req-1-dup"
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), dup, testSpec(2, "wf1")})
	must(err)
	if len(adv.Transfers) != 2 || len(adv.Removed) != 1 {
		t.Fatalf("advice %+v, want 2 advised and 1 in-batch duplicate", adv)
	}
	_, err = c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID, "t-unknown"}})
	must(err)

	// wf2 asks for the staged file too: suppressed, but now a user of it,
	// so wf1's cleanup of that file is suppressed as in use.
	again := testSpec(1, "wf2")
	again.RequestID = "req-1-wf2"
	_, err = c.AdviseTransfers([]policy.TransferSpec{again})
	must(err)
	cadv, err := c.AdviseCleanups([]policy.CleanupSpec{{RequestID: "c1", WorkflowID: "wf1", FileURL: dup.DestURL}})
	must(err)
	if len(cadv.Removed) != 1 || cadv.Removed[0].Reason != "in-use" {
		t.Fatalf("cleanup advice %+v, want one in-use suppression", cadv)
	}

	_, err = policy.Call[*policy.LeaseStatus](context.Background(), c, policy.OpRenewLease, policy.LeaseOp{WorkflowID: "wf1"})
	must(err)
	_, err = policy.Call[*policy.ClockAdvance](context.Background(), c, policy.OpAdvanceClock, policy.ClockOp{Now: 1000})
	must(err)

	_, err = c.PushBundle([]byte(testBundleDoc))
	must(err)
	_, err = policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Version: "api-v1"})
	must(err)
	_, err = policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Rollback: true})
	must(err)

	_, err = c.Execute(context.Background(), policy.OpBumpEpoch, policy.EpochOp{Epoch: 2})
	must(err)
}

// scrape waits for the admission queues to empty (a request's depth slot
// is released just after its response is sent) and returns /v1/metrics.
func scrape(t *testing.T, base string, ctl *admit.Controller) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for (ctl.Depth(admit.ClassMutate) != 0 || ctl.Depth(admit.ClassRead) != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d %v", resp.StatusCode, err)
	}
	return string(body)
}

// normalizeScrape reduces a Prometheus text scrape to one block per
// family, sorted by name: its TYPE line, then its samples sorted. Timing
// is masked: histogram buckets are dropped, and histogram sums and the
// standby lag read "_".
func normalizeScrape(t *testing.T, text string) string {
	t.Helper()
	kinds := map[string]string{}
	samples := map[string][]string{}
	var fam string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "", strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			fam = name
			kinds[fam] = kind
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || fam == "" || !strings.HasPrefix(line, fam) {
				t.Fatalf("sample outside its family: %q", line)
			}
			series, value := line[:i], line[i+1:]
			name, _, _ := strings.Cut(series, "{")
			if name == fam+"_bucket" {
				continue
			}
			if name == fam+"_sum" || fam == "policy_standby_lag_seconds" {
				value = "_"
			}
			samples[fam] = append(samples[fam], series+" "+value)
		}
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kinds[name])
		lines := samples[name]
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out []string
	for l, n := range w {
		if g[l] < n {
			out = append(out, "- "+l)
		}
	}
	for l, n := range g {
		if w[l] < n {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
