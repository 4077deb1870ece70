package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/durable"
	"policyflow/internal/executor"
	"policyflow/internal/experiment"
	"policyflow/internal/montage"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
	"policyflow/internal/simnet"
	"policyflow/internal/transfer"
	"policyflow/internal/workflow"
)

// stack.go is the only place the benchmark assembles the program under
// test. It uses the constructors cmd/policyserver/main.go calls, with the
// server's default flags, plus SetMutationLog (the flush model),
// transfer.Advisor (the embedded deployment), StandbySyncer and
// ReplicatedClient (the failover pair).

const (
	srcBase    = "gsiftp://alamo.futuregrid.tacc.example.org/data/"
	dstBase    = "file://obelix.isi.example.org/scratch/"
	residentWF = "wf-resident"

	// modelledFlush stands in for the device: the WAL lives inside the
	// checkout, where fsync cost belongs to the sandbox's disk and wanders,
	// so the store runs without fsync(2) and every Sync is followed by this
	// fixed delay instead. Same in both passes and on both sides of any
	// comparison.
	modelledFlush = time.Millisecond
	walFsync      = false
)

// admitConfig is policyserver's -max-queue / -queue-wait / -batch-max defaults.
var admitConfig = admit.Config{MaxQueue: 256, MaxWait: 250 * time.Millisecond, BatchMax: 32}

// node is one policy server: engine, optional durable store, admission
// controller and HTTP API on a loopback listener.
type node struct {
	svc   *policy.Service
	store *durable.PolicyStore // nil without a data dir
	log   *flushLog            // nil until armFlush
	ctl   *admit.Controller
	api   *policyhttp.Server
	url   string

	srv    *http.Server
	served chan struct{}
	dir    string
}

func startNode(dataDir string, tr *tracer) (*node, error) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		return nil, err
	}
	n := &node{svc: svc, dir: dataDir, served: make(chan struct{})}
	reg := obs.NewRegistry()
	if dataDir != "" {
		n.store, _, err = durable.OpenPolicyStore(dataDir, svc,
			durable.Options{Fsync: walFsync, Metrics: obs.NewWALMetrics(reg)})
		if err != nil {
			return nil, fmt.Errorf("open data dir %s: %w", dataDir, err)
		}
	}
	n.api = policyhttp.NewServerWith(svc, nil, reg, nil)
	if n.store != nil {
		n.api.SetDurable(n.store)
	}
	n.ctl = admit.New(admitConfig, traceRunner(tr, policyhttp.ServiceRunner(svc)))
	n.ctl.Instrument(reg)
	n.api.SetAdmission(n.ctl)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: traceHandler(tr, n.api), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return n, nil
}

// armFlush puts the flush model between the service and its store. Set-up
// calls it after the preload, so preloading does not sleep once per record.
func (n *node) armFlush(tr *tracer) {
	if n.store == nil {
		return
	}
	n.log = &flushLog{inner: n.store, t: tr}
	n.svc.SetMutationLog(n.log)
}

// stop drains and closes everything; the data dir stays for its owner.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := n.ctl.Drain(ctx)
	if serr := n.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	n.ctl.Close()
	<-n.served
	if n.store != nil {
		if cerr := n.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// newClient is one Pegasus transfer tool's client: its own connection and
// idempotency-key space, and no retries, so a shed surfaces as a failure.
func newClient(url string) (*policyhttp.Client, *http.Transport) {
	tp := &http.Transport{MaxIdleConnsPerHost: 2}
	return policyhttp.NewClient(url,
		policyhttp.WithTransport(tp),
		policyhttp.WithRetry(policyhttp.RetryPolicy{MaxAttempts: 1})), tp
}

func transferSpec(wf, lfn string) policy.TransferSpec {
	return policy.TransferSpec{RequestID: "r-" + lfn, WorkflowID: wf,
		SourceURL: srcBase + lfn, DestURL: dstBase + lfn, SizeBytes: 2 << 20}
}

func residentLFN(i int) string { return fmt.Sprintf("resident-%05d", i) }

// preload stages n resident files for residentWF directly on the service,
// in 20-spec advise+report batches and without cleanup, so the engine
// works against a realistic Policy Memory.
func preload(svc *policy.Service, n int) error {
	for base := 0; base < n; base += 20 {
		specs := make([]policy.TransferSpec, 0, 20)
		for i := base; i < base+20 && i < n; i++ {
			specs = append(specs, transferSpec(residentWF, residentLFN(i)))
		}
		adv, err := svc.AdviseTransfers(specs)
		if err != nil {
			return fmt.Errorf("preload advise: %w", err)
		}
		ids := make([]string, len(adv.Transfers))
		for i, t := range adv.Transfers {
			ids[i] = t.ID
		}
		ack, err := svc.ReportTransfers(policy.CompletionReport{TransferIDs: ids})
		if err != nil {
			return fmt.Errorf("preload report: %w", err)
		}
		if ack.Matched != len(specs) {
			return fmt.Errorf("preload report matched %d of %d", ack.Matched, len(specs))
		}
	}
	return nil
}

func stateBytes(svc *policy.Service) ([]byte, error) { return json.Marshal(svc.ExportState()) }

// recoverStore is a cold boot: a fresh engine recovered from dir.
func recoverStore(dir string) (*policy.Service, *durable.PolicyStore, durable.RecoveryStats, error) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		return nil, nil, durable.RecoveryStats{}, err
	}
	ps, stats, err := durable.OpenPolicyStore(dir, svc, durable.Options{Fsync: walFsync})
	return svc, ps, stats, err
}

// pair is a durable primary/standby pair on loopback. Each node has a
// syncer pulling from the other; the benchmark drives SyncOnce itself where
// policyserver would run the ticker loop.
type pair struct {
	nodes   [2]*node
	direct  [2]*policyhttp.Client // one per node, for promote/snapshot/fence probes
	syncers [2]*policyhttp.StandbySyncer
	rc      *policyhttp.ReplicatedClient
	tps     []*http.Transport
}

func startPair(dirs [2]string, resident int, tr *tracer) (*pair, error) {
	p := &pair{}
	var replicas [2]*policyhttp.Client
	for i := range p.nodes {
		n, err := startNode(dirs[i], tr)
		if err != nil {
			return nil, err
		}
		p.nodes[i] = n
		var tp *http.Transport
		p.direct[i], tp = newClient(n.url)
		p.tps = append(p.tps, tp)
		replicas[i], tp = newClient(n.url)
		p.tps = append(p.tps, tp)
	}
	for i, n := range p.nodes {
		peer, tp := newClient(p.nodes[1-i].url)
		p.tps = append(p.tps, tp)
		role := policyhttp.RoleStandby
		if i == 0 {
			role = policyhttp.RolePrimary
		}
		n.api.SetFailover(role, peer)
		syncer, err := policyhttp.NewStandbySyncer(n.svc, peer, time.Hour)
		if err != nil {
			return nil, err
		}
		p.syncers[i] = syncer
	}
	if _, err := p.nodes[0].svc.BumpEpoch(1); err != nil {
		return nil, err
	}
	if err := preload(p.nodes[0].svc, resident); err != nil {
		return nil, err
	}
	// Snapshot so the standby's first pull ships state, not history.
	if _, err := p.nodes[0].store.SnapshotNow(); err != nil {
		return nil, err
	}
	if err := p.syncers[1].SyncOnce(); err != nil {
		return nil, fmt.Errorf("initial standby sync: %w", err)
	}
	for _, n := range p.nodes {
		n.armFlush(tr)
	}
	rc, err := policyhttp.NewReplicatedClient(replicas[0], replicas[1])
	if err != nil {
		return nil, err
	}
	p.rc = rc
	return p, nil
}

func (p *pair) stop() error {
	var err error
	for _, n := range p.nodes {
		if n == nil {
			continue
		}
		if serr := n.stop(); err == nil {
			err = serr
		}
	}
	for _, tp := range p.tps {
		tp.CloseIdleConnections()
	}
	return err
}

// sim is one discrete-event simulation of two concurrent full-size Montage
// workflows sharing one in-process policy service: 89 staging jobs each,
// 100 MB extras, greedy allocation at threshold 50, 8 default streams,
// shared scratch, cleanup on (the paper's multi-workflow scenario).
type sim struct {
	env     *simnet.Env
	fab     *transfer.SimFabric
	svc     *policy.Service
	adv     *timedAdvisor
	ptt     *transfer.PTT
	handles []*executor.Handle
}

func buildSim(seed int64, tr *tracer, trace uint64) (*sim, error) {
	w, err := montage.Generate(montage.DefaultConfig(100))
	if err != nil {
		return nil, err
	}
	pcfg := policy.DefaultConfig()
	pcfg.Algorithm = policy.AlgoGreedy
	pcfg.DefaultThreshold = 50
	pcfg.DefaultStreams = 8
	svc, err := policy.New(pcfg)
	if err != nil {
		return nil, err
	}
	s := &sim{env: simnet.NewEnv(seed), svc: svc, adv: &timedAdvisor{svc: svc, t: tr, trace: trace}}
	s.fab = transfer.NewSimFabric(s.env, experiment.PipeConfigFor)
	s.ptt, err = transfer.New(transfer.Config{
		Advisor: s.adv, Fabric: s.fab, DefaultStreams: 8,
		SessionSetupSeconds: 2.0, TransferSetupSeconds: 0.5, PolicyCallSeconds: 0.15,
	})
	if err != nil {
		return nil, err
	}
	ecfg := executor.DefaultConfig()
	cores := s.env.NewResource("cores", ecfg.ComputeCores)
	slots := s.env.NewResource("slots", ecfg.StagingSlots)
	for i := 1; i <= 2; i++ {
		plan, err := w.Plan(workflow.PlanConfig{
			WorkflowID:      fmt.Sprintf("wf%d", i),
			ComputeSiteBase: "file://obelix.isi.example.org/scratch",
			SharedScratch:   true,
			Cleanup:         true,
		})
		if err != nil {
			return nil, err
		}
		h, err := executor.Start(s.env, plan, s.ptt, cores, slots, ecfg)
		if err != nil {
			return nil, err
		}
		s.handles = append(s.handles, h)
	}
	return s, nil
}
