package policyhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"policyflow/internal/policy"
)

// fencedServer starts one role-assigned policy server with no peer.
func fencedServer(t *testing.T, role Role) (*Server, *policy.Service, *Client, string) {
	t.Helper()
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil)
	srv.SetFailover(role, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, svc, NewClient(ts.URL, noSleep()), ts.URL
}

// fencedPair wires a primary/standby pair whose servers know each other as
// peers, with the primary seeded at epoch 1.
func fencedPair(t *testing.T) (srvs [2]*Server, svcs [2]*policy.Service, urls [2]string) {
	_, srvs, svcs, urls = fencedPairServers(t)
	return srvs, svcs, urls
}

// fencedPairServers is fencedPair also returning the listeners, for tests
// that kill a node.
func fencedPairServers(t *testing.T) (tss [2]*httptest.Server, srvs [2]*Server, svcs [2]*policy.Service, urls [2]string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		svc, err := policy.New(policy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(svc, nil)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		tss[i], srvs[i], svcs[i], urls[i] = ts, srv, svc, ts.URL
	}
	srvs[0].SetFailover(RolePrimary, NewClient(urls[1], noSleep()))
	srvs[1].SetFailover(RoleStandby, NewClient(urls[0], noSleep()))
	if _, err := svcs[0].BumpEpoch(1); err != nil {
		t.Fatal(err)
	}
	return tss, srvs, svcs, urls
}

// TestFenceRejectsEveryMutation drives every mutating policy-plane
// endpoint against a standby and requires the epoch fence on each: 412
// Precondition Failed carrying the server's epoch, surfaced through
// IsFenced, with the client's observed epoch raised by the response.
func TestFenceRejectsEveryMutation(t *testing.T) {
	_, svc, c, _ := fencedServer(t, RoleStandby)
	if _, err := svc.BumpEpoch(3); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"adviseTransfers", func() error {
			_, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
			return err
		}},
		{"reportTransfers", func() error {
			_, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{"t-1"}})
			return err
		}},
		{"adviseCleanups", func() error {
			_, err := c.AdviseCleanups(nil)
			return err
		}},
		{"reportCleanups", func() error {
			_, err := c.ReportCleanups(policy.CleanupReport{})
			return err
		}},
		{"setThreshold", func() error {
			_, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "hostA", DestHost: "hostB", Max: 4})
			return err
		}},
		{"activateBundleDoc", func() error {
			_, err := policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Doc: []byte(`{}`)})
			return err
		}},
		{"rollbackBundle", func() error {
			_, err := policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Rollback: true})
			return err
		}},
		{"renewLease", func() error {
			_, err := policy.Call[*policy.LeaseStatus](context.Background(), c, policy.OpRenewLease, policy.LeaseOp{WorkflowID: "wf1"})
			return err
		}},
		{"advanceClock", func() error {
			_, err := policy.Call[*policy.ClockAdvance](context.Background(), c, policy.OpAdvanceClock, policy.ClockOp{Now: 99})
			return err
		}},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("standby accepted a client mutation")
			}
			if !IsFenced(err) {
				t.Fatalf("err = %v, want a 412 fence response", err)
			}
			var se *ServerError
			if !errors.As(err, &se) || se.Epoch != 3 {
				t.Fatalf("fence response epoch = %+v, want 3", err)
			}
		})
	}
	// The fence responses taught the client the fencing epoch.
	if c.Epoch() != 3 {
		t.Fatalf("client epoch = %d, want 3 (raised by fence responses)", c.Epoch())
	}
	// Nothing was applied behind the fence.
	if snap := svc.Snapshot(); snap.InFlight != 0 || snap.StagedResources != 0 {
		t.Fatalf("standby state mutated behind the fence: %+v", snap)
	}
}

// TestFenceAllowsReadsAndReplication proves the fence is scoped to client
// mutations: reads and the replication plane still work on a standby, and
// no request header opens the fence — the X-Policy-Sync bypass is gone.
func TestFenceAllowsReadsAndReplication(t *testing.T) {
	_, svc, c, url := fencedServer(t, RoleStandby)
	if _, err := svc.BumpEpoch(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.State(); err != nil {
		t.Fatalf("standby refused a read: %v", err)
	}
	if _, err := c.Dump(); err != nil {
		t.Fatalf("standby refused a state dump: %v", err)
	}
	info, err := c.EpochInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 3 || info.Role != string(RoleStandby) {
		t.Fatalf("epoch info = %+v", info)
	}

	// Raw HTTP: a client mutation is fenced with the epoch stamped on the
	// response header, and so is the same request carrying the retired
	// replication-plane marker — any client could set it.
	body, _ := json.Marshal(&policy.ClockOp{Now: 5})
	post := func(sync bool) *http.Response {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/clock/advance", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if sync {
			req.Header.Set("X-Policy-Sync", "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(false); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("unmarked mutation: status %d, want 412", resp.StatusCode)
	} else if got := resp.Header.Get(EpochHeader); got != "3" {
		t.Fatalf("fence response %s = %q, want 3", EpochHeader, got)
	}
	if resp := post(true); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("sync-replay mutation: status %d, want 412", resp.StatusCode)
	}
	if now := svc.ExportState().Clock; now != 0 {
		t.Fatalf("standby clock moved to %v behind the fence", now)
	}
}

// TestFenceSelfDeposesStalePrimary: a primary that sees a request carrying
// a newer epoch has provably been passed by a promotion — it must fence the
// write and step down before acknowledging anything stale.
func TestFenceSelfDeposesStalePrimary(t *testing.T) {
	srv, svc, c, _ := fencedServer(t, RolePrimary)
	if _, err := svc.BumpEpoch(1); err != nil {
		t.Fatal(err)
	}
	// Sanity: as primary at the newest epoch it accepts writes.
	if _, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatalf("primary refused a write: %v", err)
	}
	// The client has been acked by epoch 2 elsewhere; its next request
	// deposes this server.
	c.RaiseEpoch(2)
	if _, err := c.AdviseTransfers(nil); !IsFenced(err) {
		t.Fatalf("stale primary answered %v, want a 412 fence response", err)
	}
	if got := srv.Role(); got != RoleStandby {
		t.Fatalf("stale primary role = %s, want standby (self-deposed)", got)
	}
	// Deposed is sticky: the next write is fenced too.
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 2}); !IsFenced(err) {
		t.Fatalf("deposed primary accepted a write: %v", err)
	}
}

// TestPromoteCleanSwitchover walks the full promote protocol against a
// reachable peer: demote-first, catch-up pull, epoch bump, role flip — and
// proves promotion is idempotent.
func TestPromoteCleanSwitchover(t *testing.T) {
	srvs, svcs, urls := fencedPair(t)
	c0 := NewClient(urls[0], noSleep())
	c1 := NewClient(urls[1], noSleep())

	// Acknowledged state on the primary that the standby never synced.
	if _, err := c0.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}

	res, err := c1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 || !res.CaughtUp || res.Role != string(RolePrimary) {
		t.Fatalf("promote result = %+v, want epoch 2, caughtUp, primary", res)
	}
	if got := srvs[0].Role(); got != RoleStandby {
		t.Fatalf("old primary role = %s, want standby (demoted before catch-up)", got)
	}
	// The catch-up pull carried the acknowledged write across.
	if got, want := svcs[1].ExportState().NextTransfer, svcs[0].ExportState().NextTransfer; got != want {
		t.Fatalf("new primary NextTransfer = %d, old primary %d — acked write lost", got, want)
	}
	if svcs[1].Epoch() != 2 {
		t.Fatalf("new primary epoch = %d, want 2", svcs[1].Epoch())
	}

	// The old primary now fences; the new one serves.
	if _, err := c0.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 2}); !IsFenced(err) {
		t.Fatalf("old primary accepted a post-failover write: %v", err)
	}
	adv, err := c1.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")})
	if err != nil {
		t.Fatalf("new primary refused a write: %v", err)
	}
	// The duplicate of the pre-failover file is suppressed from carried
	// state — the same answer the old primary would have given.
	if len(adv.Removed) != 1 {
		t.Fatalf("carried state did not suppress the duplicate: %+v", adv)
	}

	// Promoting the primary again is a no-op at the same epoch.
	res2, err := c1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != 2 || res2.Role != string(RolePrimary) {
		t.Fatalf("re-promote result = %+v, want idempotent epoch 2", res2)
	}
}

// TestPromoteUnreachablePeer is the failure promotion exists for: the
// primary is gone, so the standby serves from its last sync, reporting
// CaughtUp=false.
func TestPromoteUnreachablePeer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil)
	srv.SetFailover(RoleStandby, NewClient(deadURL,
		noSleep(), WithRetry(RetryPolicy{MaxAttempts: 1})))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	res, err := NewClient(ts.URL, noSleep()).Promote()
	if err != nil {
		t.Fatalf("promotion with an unreachable peer failed: %v", err)
	}
	if res.CaughtUp {
		t.Fatal("promote reported a catch-up pull from an unreachable peer")
	}
	if res.Epoch != 1 || srv.Role() != RolePrimary {
		t.Fatalf("promote result = %+v, role %s; want epoch 1, primary", res, srv.Role())
	}
}

// TestPromoteAbortsWhenPeerRefuses: a peer that answers the demote — and
// objects — is alive, so promotion must not steamroll it. The promote
// fails with 502 and the standby stays fenced.
func TestPromoteAbortsWhenPeerRefuses(t *testing.T) {
	angry := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "demote refused", http.StatusInternalServerError)
	}))
	t.Cleanup(angry.Close)

	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil)
	srv.SetFailover(RoleStandby, NewClient(angry.URL,
		noSleep(), WithRetry(RetryPolicy{MaxAttempts: 1})))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	_, err = NewClient(ts.URL, noSleep()).Promote()
	var se *ServerError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadGateway {
		t.Fatalf("promote over an objecting peer: err = %v, want 502", err)
	}
	if srv.Role() != RoleStandby || svc.Epoch() != 0 {
		t.Fatalf("aborted promote left role %s epoch %d; want standby, 0", srv.Role(), svc.Epoch())
	}
}

// BenchmarkFailoverPromote measures a clean switchover round trip: demote
// the reachable peer, catch up from it (a full dump: the pair runs without
// durable stores, so there is no log to follow), bump the epoch
// and start serving. Roles alternate each iteration so every promote is a
// real standby-to-primary transition over the same seeded state.
func BenchmarkFailoverPromote(b *testing.B) {
	var srvs [2]*Server
	var urls [2]string
	for i := 0; i < 2; i++ {
		svc, err := policy.New(policy.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		srvs[i] = NewServer(svc, nil)
		ts := httptest.NewServer(srvs[i])
		b.Cleanup(ts.Close)
		urls[i] = ts.URL
		if i == 0 {
			if _, err := svc.BumpEpoch(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	srvs[0].SetFailover(RolePrimary, NewClient(urls[1], noSleep()))
	srvs[1].SetFailover(RoleStandby, NewClient(urls[0], noSleep()))
	seed := NewClient(urls[0], noSleep())
	for i := 0; i < 8; i++ {
		if _, err := seed.AdviseTransfers([]policy.TransferSpec{testSpec(i, "wf-bench")}); err != nil {
			b.Fatal(err)
		}
	}
	clients := [2]*Client{
		NewClient(urls[0], noSleep()),
		NewClient(urls[1], noSleep()),
	}
	standby := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := clients[standby].Promote()
		if err != nil {
			b.Fatal(err)
		}
		if !res.CaughtUp || res.Role != string(RolePrimary) {
			b.Fatalf("promote result = %+v", res)
		}
		standby = 1 - standby
	}
}
