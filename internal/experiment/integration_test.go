package experiment

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"policyflow/internal/executor"
	"policyflow/internal/montage"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
	"policyflow/internal/simnet"
	"policyflow/internal/transfer"
	"policyflow/internal/workflow"
)

// TestEndToEndOverHTTP runs a scaled Montage workflow on the simulator
// with the policy service deployed behind its real RESTful interface —
// the full production topology: executor -> transfer tool -> HTTP client
// -> HTTP server -> rule engine, and back.
func TestEndToEndOverHTTP(t *testing.T) {
	pcfg := policy.DefaultConfig()
	pcfg.DefaultThreshold = 50
	pcfg.DefaultStreams = 4
	svc, err := policy.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(policyhttp.NewServer(svc, nil))
	defer ts.Close()

	for _, mode := range []string{"json", "xml"} {
		t.Run(mode, func(t *testing.T) {
			var opts []policyhttp.ClientOption
			if mode == "xml" {
				opts = append(opts, policyhttp.WithXML())
			}
			client := policyhttp.NewClient(ts.URL, opts...)

			mcfg := montage.DefaultConfig(10)
			mcfg.GridSize = 4
			w, err := montage.Generate(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := w.Plan(workflow.PlanConfig{
				WorkflowID:      "http-" + mode,
				ComputeSiteBase: "file://obelix.isi.example.org/scratch",
				Cleanup:         true,
			})
			if err != nil {
				t.Fatal(err)
			}

			env := simnet.NewEnv(11)
			fab := transfer.NewSimFabric(env, PipeConfigFor)
			ptt, err := transfer.New(transfer.Config{
				Advisor: client, Fabric: fab, DefaultStreams: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			ecfg := executor.DefaultConfig()
			cores := env.NewResource("cores", ecfg.ComputeCores)
			slots := env.NewResource("slots", ecfg.StagingSlots)
			h, err := executor.Start(env, plan, ptt, cores, slots, ecfg)
			if err != nil {
				t.Fatal(err)
			}
			env.Run(0)
			res, err := h.Result()
			if err != nil {
				t.Fatalf("workflow failed over HTTP: %v", err)
			}
			if res.Completed != len(plan.Tasks) {
				t.Fatalf("completed %d of %d", res.Completed, len(plan.Tasks))
			}
			st, err := client.State()
			if err != nil {
				t.Fatal(err)
			}
			if st.InFlight != 0 {
				t.Fatalf("transfers leaked on the service: %+v", st)
			}
			stats := ptt.Stats()
			if stats.PolicyCalls == 0 || stats.TransfersExecuted == 0 {
				t.Fatalf("stats = %+v", stats)
			}
		})
	}
}

// stagingCounter counts executed transfers per destination URL.
type stagingCounter struct {
	transfer.Fabric
	mu     sync.Mutex
	staged map[string]int
}

func (f *stagingCounter) Transfer(p *simnet.Proc, srcURL, dstURL string, sizeBytes int64, streams int) error {
	f.mu.Lock()
	f.staged[dstURL]++
	f.mu.Unlock()
	return f.Fabric.Transfer(p, srcURL, dstURL, sizeBytes, streams)
}

// TestEndToEndWithReplicatedAdvisor runs the workflow against a fenced
// primary/standby policy deployment through the leader-following client.
// Partway through, the standby syncs, the primary is killed and the standby
// is promoted; the workflow must complete via failover without staging any
// file twice, and the survivor must carry the complete final state.
func TestEndToEndWithReplicatedAdvisor(t *testing.T) {
	var svcs [2]*policy.Service
	var servers [2]*httptest.Server
	var apis [2]*policyhttp.Server
	for i := range svcs {
		svc, err := policy.New(policy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		svcs[i], apis[i] = svc, policyhttp.NewServer(svc, nil)
		servers[i] = httptest.NewServer(apis[i])
		defer servers[i].Close()
	}
	apis[0].SetFailover(policyhttp.RolePrimary, policyhttp.NewClient(servers[1].URL))
	apis[1].SetFailover(policyhttp.RoleStandby, policyhttp.NewClient(servers[0].URL))
	if _, err := svcs[0].BumpEpoch(1); err != nil {
		t.Fatal(err)
	}
	standby, err := policyhttp.NewStandbySyncer(svcs[1], policyhttp.NewClient(servers[0].URL), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	noRetry := policyhttp.WithRetry(policyhttp.RetryPolicy{MaxAttempts: 1})
	rc, err := policyhttp.NewReplicatedClient(
		policyhttp.NewClient(servers[0].URL, noRetry),
		policyhttp.NewClient(servers[1].URL, noRetry),
	)
	if err != nil {
		t.Fatal(err)
	}

	mcfg := montage.DefaultConfig(10)
	mcfg.GridSize = 3
	w, err := montage.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.Plan(workflow.PlanConfig{
		WorkflowID:      "replicated",
		ComputeSiteBase: "file://obelix.isi.example.org/scratch",
		Cleanup:         true,
	})
	if err != nil {
		t.Fatal(err)
	}

	env := simnet.NewEnv(13)
	fab := &stagingCounter{Fabric: transfer.NewSimFabric(env, PipeConfigFor), staged: map[string]int{}}
	ptt, err := transfer.New(transfer.Config{Advisor: rc, Fabric: fab, DefaultStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	ecfg := executor.DefaultConfig()
	cores := env.NewResource("cores", ecfg.ComputeCores)
	slots := env.NewResource("slots", ecfg.StagingSlots)
	h, err := executor.Start(env, plan, ptt, cores, slots, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	// Partway through the simulated run the standby catches up, the primary
	// dies and an operator promotes the standby.
	var ackedBefore int
	env.Go("failover", func(p *simnet.Proc) {
		p.Sleep(30)
		if err := standby.SyncOnce(); err != nil {
			t.Errorf("standby sync: %v", err)
		}
		ackedBefore = svcs[0].Snapshot().TrackedFiles
		servers[0].Close()
		res, err := policyhttp.NewClient(servers[1].URL).Promote()
		if err != nil {
			t.Errorf("promote: %v", err)
		} else if res.CaughtUp || res.Epoch != 2 {
			t.Errorf("promotion = %+v, want epoch 2 with no catch-up from the dead peer", res)
		}
	})
	env.Run(0)
	res, err := h.Result()
	if err != nil {
		t.Fatalf("workflow failed despite failover: %v", err)
	}
	if res.Completed != len(plan.Tasks) {
		t.Fatalf("completed %d of %d", res.Completed, len(plan.Tasks))
	}
	if ackedBefore == 0 {
		t.Fatal("the primary died before acknowledging anything: the run never failed over mid-way")
	}
	if rc.LastAckReplica() != 1 || rc.LastAckEpoch() != 2 {
		t.Fatalf("last ack from replica %d at epoch %d, want the promoted standby at epoch 2",
			rc.LastAckReplica(), rc.LastAckEpoch())
	}
	if len(fab.staged) == 0 {
		t.Fatal("no transfer was executed")
	}
	for url, n := range fab.staged {
		if n != 1 {
			t.Errorf("%s staged %d times", url, n)
		}
	}
	// The survivor carries the complete final state: nothing in flight, no
	// cleanup pending, every file the workflow staged cleaned up again.
	if snap := svcs[1].Snapshot(); snap.InFlight != 0 || snap.PendingCleanups != 0 || snap.StagedResources != 0 {
		t.Fatalf("survivor state = %+v", snap)
	}
}
