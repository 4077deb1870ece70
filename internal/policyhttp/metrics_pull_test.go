package policyhttp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// varsSamples renders obs.VarsHandler over reg and returns the samples of
// the family name.
func varsSamples(t *testing.T, reg *obs.Registry, name string) []obs.Sample {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.VarsHandler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var fams []obs.FamilySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &fams); err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == name {
			return f.Samples
		}
	}
	t.Fatalf("/debug/vars has no family %s", name)
	return nil
}

// TestStateGaugesCurrentWithoutScrape: the state gauges read Policy Memory
// whenever the registry is rendered, not only when /v1/metrics refreshes
// them. /debug/vars reports the transfers in flight without a scrape
// before it, and a restore that drops a host pair's ledger drops its
// stream gauge from both renderings.
func TestStateGaugesCurrentWithoutScrape(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServerWith(svc, nil, reg, nil))
	defer ts.Close()
	c := NewClient(ts.URL)

	const n = 3
	specs := make([]policy.TransferSpec, n)
	for i := range specs {
		specs[i] = policy.TransferSpec{
			RequestID:  fmt.Sprintf("r%d", i),
			WorkflowID: "wf1",
			SourceURL:  fmt.Sprintf("gsiftp://A/f%d", i),
			DestURL:    fmt.Sprintf("file://B/f%d", i),
		}
	}
	if _, err := c.AdviseTransfers(specs); err != nil {
		t.Fatal(err)
	}
	if got := varsSamples(t, reg, "policy_transfers_in_flight"); len(got) != 1 || got[0].Value != n {
		t.Errorf("policy_transfers_in_flight = %+v before any scrape, want %d", got, n)
	}
	if _, err := c.Metrics(); err != nil {
		t.Fatal(err)
	}

	empty, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), policy.OpImportState, empty.ExportState()); err != nil {
		t.Fatal(err)
	}
	if got := varsSamples(t, reg, "policy_streams_allocated"); len(got) != 0 {
		t.Errorf("policy_streams_allocated = %+v after restoring a dump without the A->B ledger", got)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, `policy_streams_allocated{src="A",dst="B"}`) {
		t.Errorf("scrape keeps the dropped A->B ledger:\n%s", text)
	}
}

// TestMetricsRenderRace renders /v1/metrics and /debug/vars in a loop
// while admitted mutations, state imports and repeated Instrument calls
// run; under -race it proves the read families take the owners' locks.
func TestMetricsRenderRace(t *testing.T) {
	ts, _, syncer := newScriptedServer(t)
	api := ts.Config.Handler.(*Server)
	svc, reg := api.svc, api.reg
	c := NewClient(ts.URL)
	dump := svc.ExportState()

	var writers, render sync.WaitGroup
	done := make(chan struct{})
	render.Add(1)
	go func() {
		defer render.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			obs.VarsHandler(reg).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
		}
	}()
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 20; i++ {
				adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(100*w+i, fmt.Sprintf("wf%d", w))})
				if err != nil || len(adv.Transfers) == 0 {
					continue
				}
				c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}})
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Execute(context.Background(), policy.OpImportState, dump); err != nil {
			t.Error(err)
		}
		svc.Instrument(reg, nil)
		syncer.Instrument(reg)
	}
	writers.Wait()
	close(done)
	render.Wait()
}
