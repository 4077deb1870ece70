package policyhttp

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"policyflow/internal/policy"
)

// replicaSet starts n standalone (role-less) policy services behind test
// servers.
func replicaSet(t *testing.T, n int) ([]*httptest.Server, []*policy.Service, []*Client) {
	t.Helper()
	var servers []*httptest.Server
	var services []*policy.Service
	var clients []*Client
	for i := 0; i < n; i++ {
		cfg := policy.DefaultConfig()
		svc, err := policy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewServer(svc, nil))
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		services = append(services, svc)
		clients = append(clients, NewClient(ts.URL))
	}
	return servers, services, clients
}

// syncedPair is a fenced primary/standby pair with a leader-following
// client over it and, for each node, the syncer that pulls from the other.
type syncedPair struct {
	listeners [2]*httptest.Server
	srvs      [2]*Server
	svcs      [2]*policy.Service
	urls      [2]string
	syncers   [2]*StandbySyncer
	rc        *ReplicatedClient
}

func newSyncedPair(t *testing.T) *syncedPair {
	t.Helper()
	p := &syncedPair{}
	p.listeners, p.srvs, p.svcs, p.urls = fencedPairServers(t)
	for i := range p.syncers {
		s, err := NewStandbySyncer(p.svcs[i], NewClient(p.urls[1-i], noSleep()), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		p.syncers[i] = s
	}
	rc, err := NewReplicatedClient(NewClient(p.urls[0], noSleep()), NewClient(p.urls[1], noSleep()))
	if err != nil {
		t.Fatal(err)
	}
	p.rc = rc
	return p
}

// scripted is a stub replica: call n (0-based) is answered with codes[n]
// (the last code repeats), 0 meaning "drop the connection".
type scripted struct {
	codes []int
	hits  atomic.Int64
}

func (s *scripted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := int(s.hits.Add(1)) - 1
	if n >= len(s.codes) {
		n = len(s.codes) - 1
	}
	switch code := s.codes[n]; code {
	case 0:
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	case http.StatusOK:
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	default:
		http.Error(w, `{"error":"scripted"}`, code)
	}
}

// TestReplicatedRouting pins the leader-following walk, one call at a time
// against scripted replicas. Per-replica clients make a single attempt, so
// every hit is one routing decision.
func TestReplicatedRouting(t *testing.T) {
	if _, err := NewReplicatedClient(); err == nil {
		t.Error("empty replica set accepted")
	}
	type call struct {
		// want classifies the outcome: "" = ack, or one of the checks below.
		want string
		// hits is the cumulative request count per replica after the call.
		hits [2]int64
		// leader is the hint after the call.
		leader int
	}
	for _, tc := range []struct {
		name  string
		codes [2][]int
		calls []call
	}{
		{"ack stops the walk",
			[2][]int{{200}, {200}},
			[]call{{"", [2]int64{1, 0}, 0}, {"", [2]int64{2, 0}, 0}}},
		{"errored replica is tried again next call",
			[2][]int{{500, 200}, {200}},
			[]call{{"", [2]int64{1, 1}, 1}, {"", [2]int64{1, 2}, 1}}},
		{"unreachable replica is tried again next call",
			[2][]int{{0, 200}, {412}},
			[]call{{"no-primary", [2]int64{1, 1}, -1}, {"", [2]int64{2, 1}, 0}}},
		{"fence clears the hint and re-routes",
			[2][]int{{200, 412}, {200}},
			[]call{{"", [2]int64{1, 0}, 0}, {"", [2]int64{2, 1}, 1}, {"", [2]int64{2, 2}, 1}}},
		{"rejection is returned without visiting peers",
			[2][]int{{400}, {200}},
			[]call{{"rejection", [2]int64{1, 0}, -1}}},
		{"shed is returned without visiting peers",
			[2][]int{{429}, {200}},
			[]call{{"busy", [2]int64{1, 0}, -1}}},
		{"rejection after a fence keeps the hint cleared",
			[2][]int{{200, 412}, {404}},
			[]call{{"", [2]int64{1, 0}, 0}, {"rejection", [2]int64{2, 1}, -1}}},
		{"all fenced",
			[2][]int{{412}, {412}},
			[]call{{"no-primary", [2]int64{1, 1}, -1}}},
		{"fenced and failing",
			[2][]int{{503}, {412}},
			[]call{{"no-primary", [2]int64{1, 1}, -1}}},
		{"all unreachable",
			[2][]int{{0}, {502}},
			[]call{{"no-replicas", [2]int64{1, 1}, -1}}},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			var stubs [2]*scripted
			var clients [2]*Client
			for i := range stubs {
				stubs[i] = &scripted{codes: tc.codes[i]}
				ts := httptest.NewServer(stubs[i])
				t.Cleanup(ts.Close)
				clients[i] = NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
			}
			rc, err := NewReplicatedClient(clients[0], clients[1])
			if err != nil {
				t.Fatal(err)
			}
			for n, c := range tc.calls {
				_, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(n, "wf")})
				var ok bool
				switch c.want {
				case "":
					ok = err == nil
				case "rejection":
					ok = IsRejection(err) && !IsBusy(err) && !errors.Is(err, ErrNoPrimary) && !errors.Is(err, ErrNoReplicas)
				case "busy":
					ok = IsBusy(err)
				case "no-primary":
					ok = errors.Is(err, ErrNoPrimary)
				case "no-replicas":
					ok = errors.Is(err, ErrNoReplicas)
				}
				if !ok {
					t.Fatalf("call %d: err = %v, want %q", n, err, c.want)
				}
				if got := [2]int64{stubs[0].hits.Load(), stubs[1].hits.Load()}; got != c.hits {
					t.Fatalf("call %d: replica hits = %v, want %v", n, got, c.hits)
				}
				if got := rc.Leader(); got != c.leader {
					t.Fatalf("call %d: leader hint = %d, want %d", n, got, c.leader)
				}
			}
		})
	}
}

// TestReplicatedCallsOverlap: the client's lock covers the leader hint and
// the ack record, never the network call. Four concurrent callers against
// a handler that answers only once all four are inside it must all
// complete; were calls serialized, the first would wait out the barrier
// alone.
func TestReplicatedCallsOverlap(t *testing.T) {
	const callers = 4
	var inside atomic.Int64
	all := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inside.Add(1) == callers {
			close(all)
		}
		select {
		case <-all:
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{}`))
		case <-time.After(5 * time.Second):
			http.Error(w, "callers did not overlap", http.StatusInternalServerError)
		}
	}))
	t.Cleanup(ts.Close)
	rc, err := NewReplicatedClient(NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1})))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(i, "wf")}); err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if rc.Leader() != 0 || rc.LastAckReplica() != 0 {
		t.Fatalf("leader %d, last ack %d after concurrent acks, want 0, 0", rc.Leader(), rc.LastAckReplica())
	}
}

// TestReplicasStayIdentical: replication is the standby pulling the
// primary's log. Every mutation through the client lands on the primary
// alone — the standby serves no client request — and one sync later the two
// Policy Memories are byte-identical, assigned transfer IDs included.
func TestReplicasStayIdentical(t *testing.T) {
	p := newSyncedPair(t)
	adv, err := p.rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 2 {
		t.Fatalf("advice = %+v", adv)
	}
	if _, err := p.rc.ReportTransfers(policy.CompletionReport{
		TransferIDs: []string{adv.Transfers[0].ID},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.rc.Do(context.Background(), policy.OpSetThreshold,
		policy.ThresholdOp{SourceHost: "a.example.org", DestHost: "b.example.org", Max: 7}); err != nil {
		t.Fatal(err)
	}
	if got := dumpJSON(t, p.svcs[1]); got == dumpJSON(t, p.svcs[0]) {
		t.Fatal("standby already matches the primary before any sync: the client wrote to both")
	}
	if err := p.syncers[1].SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpJSON(t, p.svcs[1]), dumpJSON(t, p.svcs[0]); got != want {
		t.Fatalf("standby diverged from primary after sync:\n primary %s\n standby %s", want, got)
	}
	if snap := p.svcs[1].Snapshot(); snap.InFlight != 1 {
		t.Fatalf("standby InFlight = %d, want 1", snap.InFlight)
	}
}

// TestFailoverOnPrimaryDeath: the primary dies after the standby's last
// sync; an operator promotes the standby (its peer unreachable, so no
// catch-up pull), and the client's next call fails over to it. Its memory
// already contains the in-progress transfer: the duplicate is suppressed
// exactly as the primary would have.
func TestFailoverOnPrimaryDeath(t *testing.T) {
	p := newSyncedPair(t)
	rc := p.rc
	if _, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	if err := p.syncers[1].SyncOnce(); err != nil {
		t.Fatal(err)
	}

	p.listeners[0].Close()
	// With the primary dead and nobody promoted, there is no one to write to.
	if _, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")}); !errors.Is(err, ErrNoPrimary) {
		t.Fatalf("err = %v before the promotion, want ErrNoPrimary", err)
	}
	res, err := NewClient(p.urls[1], noSleep()).Promote()
	if err != nil {
		t.Fatal(err)
	}
	if res.CaughtUp {
		t.Fatal("promotion claims a catch-up pull from a dead peer")
	}
	adv, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")})
	if err != nil {
		t.Fatalf("failover failed: %v", err)
	}
	if len(adv.Removed) != 1 || adv.Removed[0].Reason != "in-progress" {
		t.Fatalf("promoted standby lost state: %+v", adv)
	}
	if rc.Leader() != 1 || rc.LastAckReplica() != 1 {
		t.Fatalf("leader %d, last ack %d, want the promoted standby (1)", rc.Leader(), rc.LastAckReplica())
	}
}

// TestAllReplicasDown: nobody answers, nobody fenced — ErrNoReplicas.
func TestAllReplicasDown(t *testing.T) {
	servers, _, clients := replicaSet(t, 2)
	rc, err := NewReplicatedClient(clients...)
	if err != nil {
		t.Fatal(err)
	}
	servers[0].Close()
	servers[1].Close()
	if _, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
}

// TestResyncRecoversReplica: a deposed primary is repaired by its own
// syncer, not by a client. After a clean switchover and more writes on the
// new primary, Reset + SyncOnce on the old one — the pair is memory-only,
// so this is the 501 → full-dump path — leaves it byte-identical, and it
// would suppress duplicates exactly like the primary if promoted back.
func TestResyncRecoversReplica(t *testing.T) {
	p := newSyncedPair(t)
	adv, err := p.rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(p.urls[1], noSleep()).Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.rc.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if p.rc.LastAckReplica() != 1 {
		t.Fatalf("report acked by replica %d, want the new primary", p.rc.LastAckReplica())
	}
	if snap := p.svcs[0].Snapshot(); snap.StagedResources != 0 {
		t.Fatal("deposed primary saw the post-promotion report")
	}

	p.syncers[0].Reset()
	if err := p.syncers[0].SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpJSON(t, p.svcs[0]), dumpJSON(t, p.svcs[1]); got != want {
		t.Fatalf("deposed primary did not reconverge:\n primary %s\n deposed %s", want, got)
	}
	if got := p.svcs[0].Epoch(); got != 2 {
		t.Fatalf("deposed primary at epoch %d after sync, want the new primary's 2", got)
	}
	adv2, err := p.svcs[0].AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv2.Removed) != 1 || adv2.Removed[0].Reason != "already-staged" {
		t.Fatalf("reconverged node's advice = %+v", adv2)
	}
}

func TestDumpRestoreOverHTTP(t *testing.T) {
	for _, mode := range []string{"json", "xml"} {
		t.Run(mode, func(t *testing.T) {
			_, _, clients := replicaSet(t, 2)
			a, b := clients[0], clients[1]
			if mode == "xml" {
				a = NewClient(a.base, WithXML())
				b = NewClient(b.base, WithXML())
			}
			adv, err := a.AdviseTransfers([]policy.TransferSpec{testSpec(7, "wf1")})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
				t.Fatal(err)
			}
			dump, err := a.Dump()
			if err != nil {
				t.Fatal(err)
			}
			if len(dump.Resources) != 1 || !dump.Resources[0].Staged {
				t.Fatalf("dump = %+v", dump)
			}
			if err := b.Restore(dump); err != nil {
				t.Fatal(err)
			}
			st, err := b.State()
			if err != nil {
				t.Fatal(err)
			}
			if st.StagedResources != 1 {
				t.Fatalf("restored state = %+v", st)
			}
		})
	}
}
