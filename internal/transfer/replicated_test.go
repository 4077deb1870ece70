package transfer

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
	"policyflow/internal/simnet"
	"policyflow/internal/workflow"
)

// dropReports delivers every request but, while armed, loses the response
// to each completion report sent to host: the server applies (and caches)
// the report, the client sees a transport error.
type dropReports struct {
	host  string
	armed atomic.Bool
}

func (d *dropReports) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && d.armed.Load() && req.URL.Host == d.host && req.URL.Path == "/v1/transfers/completed" {
		resp.Body.Close()
		return nil, errors.New("response lost")
	}
	return resp, err
}

// TestReplicatedClientKeepsBacklogKey drives the PTT's degraded mode over a
// leader-following client in front of a primary/standby pair. Every
// response to the first completion report is lost at the primary, which
// has applied it; the standby fences the re-route, so the PTT queues the
// report under its key and opens the breaker. The drain after the cooldown
// must reach the primary under that same key and be answered from its
// replay cache: the report is applied once.
func TestReplicatedClientKeepsBacklogKey(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.LeaseTTL = 120
	var svcs [2]*policy.Service
	var servers [2]*httptest.Server
	for i, role := range []policyhttp.Role{policyhttp.RolePrimary, policyhttp.RoleStandby} {
		svc, err := policy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		api := policyhttp.NewServer(svc, nil)
		api.SetFailover(role, nil)
		svcs[i], servers[i] = svc, httptest.NewServer(api)
		defer servers[i].Close()
	}
	if _, err := svcs[0].BumpEpoch(1); err != nil {
		t.Fatal(err)
	}
	drop := &dropReports{host: servers[0].Listener.Addr().String()}
	var clients []*policyhttp.Client
	for _, s := range servers {
		clients = append(clients, policyhttp.NewClient(s.URL,
			policyhttp.WithTransport(drop), policyhttp.WithBackoffSleep(func(time.Duration) {})))
	}
	rc, err := policyhttp.NewReplicatedClient(clients...)
	if err != nil {
		t.Fatal(err)
	}

	env := simnet.NewEnv(1)
	ptt, err := New(Config{
		Advisor: rc, Fabric: NewSimFabric(env, quietConfigFor), DefaultStreams: 4,
		PolicyCallSeconds: 0.1,
		Breaker:           BreakerConfig{FailureThreshold: 1, CooldownSeconds: 30, BacklogLimit: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Go("workflow", func(p *simnet.Proc) {
		drop.armed.Store(true)
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 4)}, 0); err != nil {
			t.Errorf("lost report: %v", err)
		}
		drop.armed.Store(false)
		p.Sleep(40)
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(2, 4)}, 0); err != nil {
			t.Errorf("after cooldown: %v", err)
		}
	})
	env.Run(0)

	st := ptt.Stats()
	if st.BreakerOpens != 1 || st.BacklogQueued != 1 || st.BacklogDrained != 1 {
		t.Fatalf("breaker opens %d, backlog queued %d / drained %d; want 1, 1 / 1",
			st.BreakerOpens, st.BacklogQueued, st.BacklogDrained)
	}
	// Two reports were sent, one of them three times and once more from
	// the backlog: the primary must have applied exactly two.
	if got := svcs[0].DecisionCount(policy.OpReportTransfers); got != 2 {
		t.Errorf("primary applied %d completion reports, want 2: the drained report was applied again", got)
	}
	if d := svcs[0].ExportState(); len(d.Transfers) != 0 {
		t.Errorf("%d transfers still in flight on the primary", len(d.Transfers))
	}
}
