package policyhttp

import (
	"context"
	"testing"
	"time"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

func TestStandbySyncOnce(t *testing.T) {
	_, services, clients := replicaSet(t, 1)
	primary := clients[0]
	// Put state on the primary.
	adv, err := primary.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	standby, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	syncer, err := NewStandbySyncer(standby, primary, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if snap := standby.Snapshot(); snap.StagedResources != 1 {
		t.Fatalf("standby state = %+v", snap)
	}
	// Standby continues with identical semantics after primary death.
	_ = services
	adv2, err := standby.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv2.Removed) != 1 || adv2.Removed[0].Reason != "already-staged" {
		t.Fatalf("standby advice = %+v", adv2)
	}
	if syncs, fails := syncer.Stats(); syncs != 1 || fails != 0 {
		t.Fatalf("stats = %d, %d", syncs, fails)
	}
}

// TestStandbyRunLoop drives Run through an injected tick channel, so the
// test is deterministic: exactly one sync per tick, no real timers, no
// deadlines racing the scheduler.
func TestStandbyRunLoop(t *testing.T) {
	servers, _, clients := replicaSet(t, 1)
	standby, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan error)
	syncer, err := NewStandbySyncer(standby, clients[0], time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(chan time.Time)
	syncer.Ticks = ticks
	syncer.OnSync = func(err error) { synced <- err }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		syncer.Run(ctx)
		close(done)
	}()

	// First tick: the primary is healthy, the sync succeeds.
	ticks <- time.Time{}
	if err := <-synced; err != nil {
		t.Fatalf("first sync: %v", err)
	}
	// After the primary dies, syncs fail but the loop keeps running.
	servers[0].Close()
	ticks <- time.Time{}
	if err := <-synced; err == nil {
		t.Fatal("sync against a dead primary reported success")
	}
	// The loop survived the failure: it still answers the next tick.
	ticks <- time.Time{}
	if err := <-synced; err == nil {
		t.Fatal("sync against a dead primary reported success")
	}
	if syncs, fails := syncer.Stats(); syncs != 1 || fails != 2 {
		t.Fatalf("stats = %d syncs, %d failures; want 1, 2", syncs, fails)
	}
	// Cancellation stops the loop.
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

func TestStandbyValidation(t *testing.T) {
	if _, err := NewStandbySyncer(nil, nil, 0); err == nil {
		t.Fatal("nil arguments accepted")
	}
}

// TestStandbyLagBeforeFirstSuccess: a standby that has never synced
// successfully must not report lag 0 while its error counter climbs — lag
// is measured from the syncer's construction until the first success. A
// failed first attempt (donor unreachable) also leaves the local state
// untouched, and the first success resets the gauge.
func TestStandbyLagBeforeFirstSuccess(t *testing.T) {
	servers, _, clients := replicaSet(t, 1)
	dead := NewClient("http://127.0.0.1:1", noSleep(), WithRetry(RetryPolicy{MaxAttempts: 1}))
	local, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStandbySyncer(local, dead, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	time.Sleep(5 * time.Millisecond)
	if err := s.SyncOnce(); err == nil {
		t.Fatal("sync from an unreachable primary succeeded")
	}
	if lag := sampleOf(t, reg, "policy_standby_lag_seconds"); lag < 0.005 {
		t.Fatalf("lag = %v after a failed first sync, want at least the 5ms since construction", lag)
	}
	if errs, syncs := sampleOf(t, reg, "policy_standby_errors_total"), sampleOf(t, reg, "policy_standby_syncs_total"); errs != 1 || syncs != 0 {
		t.Fatalf("errors %v, syncs %v, want 1, 0", errs, syncs)
	}
	if snap := local.Snapshot(); snap.TrackedFiles != 0 {
		t.Fatalf("failed sync touched the standby: %+v", snap)
	}

	if _, err := clients[0].AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	s.primary = clients[0]
	if err := s.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if lag := sampleOf(t, reg, "policy_standby_lag_seconds"); lag != 0 {
		t.Fatalf("lag = %v after a successful sync, want 0", lag)
	}
	servers[0].Close()
	time.Sleep(2 * time.Millisecond)
	if err := s.SyncOnce(); err == nil {
		t.Fatal("sync from a dead primary succeeded")
	}
	if lag := sampleOf(t, reg, "policy_standby_lag_seconds"); lag <= 0 || lag > 1 {
		t.Fatalf("lag = %v after losing the primary, want the few ms since the last success", lag)
	}
}

// sampleOf returns the value of the unlabeled family name in reg.
func sampleOf(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == name && len(f.Samples) == 1 {
			return f.Samples[0].Value
		}
	}
	t.Fatalf("no single sample of %s", name)
	return 0
}
