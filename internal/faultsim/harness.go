package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/durable"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

// numReplicas is the size of the simulated pair: one primary, one standby.
const numReplicas = 2

// Fault-count keys for the legitimate failures the harness absorbs, next to
// the op kinds that inject them: a client op nobody acknowledged and a
// standby sync that failed.
const (
	unackedOp  = "unackedOp"
	failedSync = "failedSync"
)

// simReplica is one simulated policy server: a service with a durable
// store on its own data directory, exposed through the full HTTP stack
// behind an admission controller.
type simReplica struct {
	host   string
	dir    string
	svc    *policy.Service
	ps     *durable.PolicyStore
	reg    *obs.Registry
	server *policyhttp.Server
	ctl    *admit.Controller
}

// Harness wires the full stack — policy service, durable store, HTTP
// server, retrying client, leader-following client, standby syncer — into a
// deterministic simulation of an epoch-fenced primary/standby pair. Every
// operation runs against the pair through the fault-injecting Router AND
// against a fault-free in-memory oracle; after each step the oracle's state
// is checked against the order-free model and every replica required to be
// current is checked byte-for-byte against the oracle.
type Harness struct {
	cfg policy.Config

	router   *Router
	replicas [numReplicas]*simReplica
	clients  [numReplicas]*policyhttp.Client
	rc       *policyhttp.ReplicatedClient

	oracle *policy.Service
	model  *Model

	// acked counts, by logged op name, the decision records the primary
	// committed serving acknowledged operations. After every step the
	// oracle's decision-provenance counters must equal these exactly.
	acked map[string]int64

	// ClientReg holds the shared client retry metrics (requests, retries,
	// faults, exhausted, idempotent replays) for all simulated clients.
	ClientReg     *obs.Registry
	ClientMetrics *obs.ClientMetrics

	walMu     sync.Mutex
	walFaults [numReplicas]int

	// localFaults counts fault events injected outside the Router (crash,
	// torn WAL tail, disk-write failure, ...) and the failures they
	// legitimately caused (unackedOp, failedSync), by kind.
	localFaults map[string]int

	// roles is the harness's intent for each replica — a partitioned old
	// primary still believes it is primary until probed or demoted, but the
	// harness knows who SHOULD be serving. expectedEpoch is the one epoch
	// allowed to acknowledge writes; fresh marks replicas whose Policy
	// Memory must equal the oracle's right now (a standby legitimately lags
	// between syncs, so only fresh replicas are compared). syncers and
	// peerClients wire each replica at its peer.
	roles         [numReplicas]policyhttp.Role
	curPrimary    int
	expectedEpoch uint64
	fresh         [numReplicas]bool
	syncers       [numReplicas]*policyhttp.StandbySyncer
	peerClients   [numReplicas]*policyhttp.Client

	seed int64
	step int
}

// newHarness builds a harness with replica data directories under baseDir.
// Replica 0 starts as primary at epoch 1 (taken through its WAL, the oracle
// and model in lockstep); replica 1 is its standby, stale at epoch 0 until
// its first sync.
func newHarness(baseDir string, sched Schedule) (*Harness, error) {
	sc := sched.Config
	cfg := policy.Config{
		Algorithm:        sc.Algorithm,
		DefaultStreams:   sc.DefaultStreams,
		DefaultThreshold: sc.Threshold,
		ClusterFactor:    sc.ClusterFactor,
		LeaseTTL:         sc.LeaseTTL,
	}
	oracle, err := policy.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("faultsim: build oracle: %w", err)
	}
	h := &Harness{
		cfg:         cfg,
		router:      newRouter(),
		oracle:      oracle,
		model:       newModel(cfg),
		ClientReg:   obs.NewRegistry(),
		acked:       make(map[string]int64),
		localFaults: make(map[string]int),
		roles:       [numReplicas]policyhttp.Role{policyhttp.RolePrimary, policyhttp.RoleStandby},
		seed:        sched.Seed,
	}
	h.ClientMetrics = obs.NewClientMetrics(h.ClientReg)
	// The model wrote down the v0 bundle it expects the service to embed;
	// a service whose v0 differs would decide under other tunables from
	// the first step, so that is a failure before any op runs.
	if got, want := oracle.ActiveBundle(), h.model.active; got.Checksum() != want.Checksum() {
		return nil, fmt.Errorf("faultsim: the service's v0 bundle %s, want the model's %s", got.Canonical(), want.Canonical())
	}
	// Peer clients are wired before the replicas open because openReplica
	// installs them (promotion demotes and pulls from the peer through the
	// router, so partitions apply to the control plane too).
	for i := 0; i < numReplicas; i++ {
		h.peerClients[i] = h.newClient(1-i, 37)
	}
	for i := 0; i < numReplicas; i++ {
		host := fmt.Sprintf("replica%d", i)
		h.replicas[i] = &simReplica{host: host, dir: filepath.Join(baseDir, host)}
		if err := h.openReplica(i); err != nil {
			return nil, err
		}
	}
	if err := h.connectClients(); err != nil {
		return nil, err
	}
	if _, err := h.replicas[0].svc.BumpEpoch(1); err != nil {
		return nil, fmt.Errorf("faultsim: seed primary epoch: %w", err)
	}
	if _, err := h.oracle.BumpEpoch(1); err != nil {
		return nil, fmt.Errorf("faultsim: seed oracle epoch: %w", err)
	}
	h.model.setEpoch(1)
	h.expectedEpoch = 1
	h.fresh[0] = true
	return h, nil
}

// newClient builds a client for replica i through the fault-injecting
// router; salt decorrelates the jitter streams of the different client sets.
func (h *Harness) newClient(i int, salt int64) *policyhttp.Client {
	return policyhttp.NewClient(fmt.Sprintf("http://replica%d", i),
		policyhttp.WithTransport(h.router),
		policyhttp.WithBackoffSleep(func(time.Duration) {}),
		policyhttp.WithJitterSeed(h.seed*salt+int64(i)),
		policyhttp.WithMetrics(h.ClientMetrics),
	)
}

// connectClients gives the simulated workflow a fresh set of clients: one
// per replica plus the leader-following client over them. A fresh set has
// observed no epoch and holds no leader hint — a workflow process that
// just started.
func (h *Harness) connectClients() error {
	for i := range h.clients {
		h.clients[i] = h.newClient(i, 31)
	}
	rc, err := policyhttp.NewReplicatedClient(h.clients[:]...)
	h.rc = rc
	return err
}

// faultFor returns the WriteFault hook for replica i: it fails the next
// h.walFaults[i] appends with an injected disk error. The hook survives
// crash-restarts because the countdown lives on the harness.
func (h *Harness) faultFor(i int) func(op string) error {
	return func(op string) error {
		h.walMu.Lock()
		defer h.walMu.Unlock()
		if h.walFaults[i] > 0 {
			h.walFaults[i]--
			return fmt.Errorf("injected disk-write failure (op %s)", op)
		}
		return nil
	}
}

// armedDiskFaults returns how many injected append failures replica i still
// has coming.
func (h *Harness) armedDiskFaults(i int) int {
	h.walMu.Lock()
	defer h.walMu.Unlock()
	return h.walFaults[i]
}

// openReplica (re)builds replica i's full stack on its data directory,
// recovering Policy Memory from snapshot + WAL, and routes its host at the
// new server.
func (h *Harness) openReplica(i int) error {
	r := h.replicas[i]
	svc, err := policy.New(h.cfg)
	if err != nil {
		return fmt.Errorf("faultsim: build replica %d: %w", i, err)
	}
	ps, _, err := durable.OpenPolicyStore(r.dir, svc, durable.Options{
		Fsync:      false, // the harness crashes between ops, never mid-write
		WriteFault: h.faultFor(i),
	})
	if err != nil {
		return fmt.Errorf("faultsim: open replica %d store: %w", i, err)
	}
	reg := obs.NewRegistry()
	server := policyhttp.NewServerWith(svc, nil, reg, nil)
	server.SetDurable(ps)
	// Each replica fronts its service with a real admission controller, so
	// mutations flow through the coalescing queue exactly as deployed.
	// Bounds are generous — the harness is sequential — and the only sheds
	// are the ones OpShed arms deterministically via FailNext.
	ctl := policyhttp.NewAdmissionController(svc, admit.Config{
		MaxQueue: 64,
		MaxWait:  30 * time.Second,
		BatchMax: 8,
	})
	server.SetAdmission(ctl)
	// Restore the role the harness believes this replica has (the epoch
	// itself recovers from the WAL); the server brings its own syncer. The
	// replica cursor lived in the previous service instance, so a
	// crash-recovered standby's next sync is a full one.
	server.SetFailover(h.roles[i], h.peerClients[i])
	h.syncers[i] = server.Syncer()
	if r.ctl != nil {
		r.ctl.Close()
	}
	r.svc, r.ps, r.reg, r.server, r.ctl = svc, ps, reg, server, ctl
	h.router.register(r.host, server)
	return nil
}

// Close releases the replicas' durable stores and stops their admission
// dispatchers.
func (h *Harness) Close() {
	for _, r := range h.replicas {
		if r == nil {
			continue
		}
		if r.ps != nil {
			r.ps.Close()
		}
		if r.ctl != nil {
			r.ctl.Close()
		}
	}
}

// serverRegistry exposes replica i's metrics registry (tests assert the
// idempotent-replay counter there).
func (h *Harness) serverRegistry(i int) *obs.Registry { return h.replicas[i].reg }

// faultCounts merges the Router's injected-fault counters with the
// harness-level ones (crashes, torn tails, disk faults), by kind.
func (h *Harness) faultCounts() map[string]int {
	out := make(map[string]int)
	h.router.mu.Lock()
	for k, n := range h.router.Injected {
		out[string(k)] += n
	}
	h.router.mu.Unlock()
	for k, n := range h.localFaults {
		out[k] += n
	}
	return out
}

// exec executes one operation: queue its HTTP faults, run it against the
// pair and the oracle, then verify the model and replica consistency. A
// non-nil error is an invariant violation (or an internal harness failure)
// and fails the schedule.
func (h *Harness) exec(op Op) error {
	h.step++
	for _, f := range op.Faults {
		if f.Replica < 0 || f.Replica >= numReplicas {
			return fmt.Errorf("faultsim: step %d: fault replica %d out of range", h.step, f.Replica)
		}
		h.router.queue(h.replicas[f.Replica].host, f.Kind)
	}
	var err error
	name, payload := op.mutation()
	switch {
	case name != "":
		err = h.stepMutation(op, name, payload)
	case op.Kind == OpClientCrash:
		// A client process dies. Nothing reaches the service — the whole
		// point of the lease subsystem is that the server notices only via
		// the clock. The generator stops issuing ops for this workflow; its
		// holdings stay pinned until a later advanceClock expires its lease.
		h.localFaults[OpClientCrash]++
	case op.Kind == OpCrash, op.Kind == OpTornCrash:
		err = h.stepCrash(op.Replica, op.Kind == OpTornCrash)
	case op.Kind == OpShed:
		// Arm deterministic admission sheds: the replica's controller
		// rejects its next Count mutation submissions with 429 before any
		// side effect. On the primary the client retries through them (or
		// gives up and reports busy); either way the shed ops must leave it
		// byte-identical to one that never saw them. A standby admits no
		// client mutations and its syncer bypasses admission, so sheds armed
		// there wait for its promotion (or are lost with a crash).
		h.replicas[op.Replica].ctl.FailNext(op.Count)
		h.localFaults[OpShed] += op.Count
	case op.Kind == OpDiskFault:
		// Fail the replica's next Count WAL appends. On the primary the next
		// logged mutation answers 500 with no effect; on the standby the
		// next sync that has anything to apply fails (see stepStandbySync).
		h.walMu.Lock()
		h.walFaults[op.Replica] += op.Count
		h.walMu.Unlock()
		h.localFaults[OpDiskFault] += op.Count
	case op.Kind == OpSnapshot:
		err = h.stepSnapshot(op.Replica)
	case op.Kind == OpPartition:
		h.router.setPartitioned(h.replicas[op.Replica].host, true)
		h.localFaults[OpPartition]++
	case op.Kind == OpHeal:
		for _, r := range h.replicas {
			h.router.setPartitioned(r.host, false)
		}
		h.localFaults[OpHeal]++
	case op.Kind == OpPromote:
		err = h.stepPromote(op)
	case op.Kind == OpDemote:
		err = h.stepDemote(op)
	case op.Kind == OpStandbySync:
		err = h.stepStandbySync()
	case op.Kind == OpFenceProbe:
		err = h.stepFenceProbe(op)
	default:
		err = fmt.Errorf("faultsim: unknown op kind %q", op.Kind)
	}
	h.router.drain()
	if err != nil {
		return fmt.Errorf("step %d (%s): %w", h.step, op.Kind, err)
	}
	if err := h.checkReplicas(); err != nil {
		return fmt.Errorf("step %d (%s): %w", h.step, op.Kind, err)
	}
	return nil
}

// stepMutation runs one logged op on the pair through the leader-following
// client and sorts the outcome:
//
//   - ack: it must come from the expected primary at the expected epoch,
//     the fault-free oracle must accept the same payload with a
//     reflect.DeepEqual result, and the model mirrors it;
//   - admission shed (429): the op never happened — nothing changes and
//     nothing reaches the oracle, which has no admission queue. IsBusy is
//     checked before IsRejection because a 429 is a 4xx on the wire;
//   - deterministic rejection: the oracle must reject it too;
//   - ErrNoPrimary / ErrNoReplicas: no server acknowledged it. The primary
//     failed it (an armed disk fault answers 500 before any effect) or was
//     unreachable, and the standby fenced it or was unreachable too. The
//     schedule grammar queues at most two HTTP faults per op against three
//     client attempts, so an unacknowledged op was applied nowhere: the
//     primary stays fresh, and the very next checkReplicas proves it.
//
// Anything else is a violation. An acknowledged op counts toward the
// decision records checkDecisions expects by as many records as the
// primary committed serving it — retries, duplicates and replays included
// — and a data-plane (admitted) op must have committed exactly one.
func (h *Harness) stepMutation(op Op, name string, payload any) error {
	ctx := context.Background()
	primary := h.replicas[h.curPrimary].svc
	records := primary.DecisionCount(name)
	res, err := h.rc.Execute(ctx, name, payload)
	switch {
	case err == nil:
		if err := h.noteAck(); err != nil {
			return err
		}
		if op.Invalid {
			return fmt.Errorf("invalid %s payload was accepted", name)
		}
		ores, oerr := h.oracle.Execute(ctx, name, payload)
		if oerr != nil {
			return fmt.Errorf("replicas accepted %s the oracle rejects: %v", name, oerr)
		}
		if !reflect.DeepEqual(res, ores) {
			return fmt.Errorf("%s result diverges from oracle:\n  got  %+v\n  want %+v", name, res, ores)
		}
		records = primary.DecisionCount(name) - records
		if policy.OpAdmitted(name) && records != 1 {
			return fmt.Errorf("acknowledged %s committed %d decision records on the primary, want 1", name, records)
		}
		h.acked[name] += records
		return h.model.apply(name, payload, res)
	case policyhttp.IsBusy(err):
		return nil
	case errors.Is(err, policyhttp.ErrNoPrimary), errors.Is(err, policyhttp.ErrNoReplicas):
		h.localFaults[unackedOp]++
		return nil
	case policyhttp.IsRejection(err):
		if _, oerr := h.oracle.Execute(ctx, name, payload); oerr == nil {
			return fmt.Errorf("replicas rejected %s the oracle accepts: %v", name, err)
		}
		return nil
	default:
		return fmt.Errorf("unexpected client error: %w", err)
	}
}

// noteAck runs after every acknowledged mutation: the ack must come from
// the expected primary at the expected epoch (two replicas acking under
// different epochs is split brain, the one failure mode the fence exists to
// prevent), and it makes the primary the only replica whose state is
// required to match the oracle (the standby never saw the write, so it lags
// until its next sync).
func (h *Harness) noteAck() error {
	if e := h.rc.LastAckEpoch(); e != h.expectedEpoch {
		return fmt.Errorf("mutation acknowledged at epoch %d, expected %d", e, h.expectedEpoch)
	}
	if r := h.rc.LastAckReplica(); r != h.curPrimary {
		return fmt.Errorf("mutation acknowledged by replica %d, expected primary %d", r, h.curPrimary)
	}
	for i := range h.fresh {
		h.fresh[i] = i == h.curPrimary
	}
	return nil
}

// stepCrash kills replica i (optionally tearing the WAL tail, simulating a
// crash mid-write) and recovers it from disk. Recovery must reproduce the
// exact pre-crash Policy Memory.
func (h *Harness) stepCrash(i int, torn bool) error {
	r := h.replicas[i]
	pre := r.svc.ExportState()
	if err := r.ps.Close(); err != nil {
		return fmt.Errorf("close replica %d store: %w", i, err)
	}
	kind := OpCrash
	if torn {
		if err := tearTail(r.dir); err != nil {
			return fmt.Errorf("tear WAL tail of replica %d: %w", i, err)
		}
		kind = OpTornCrash
	}
	h.localFaults[kind]++
	if err := h.openReplica(i); err != nil {
		return err
	}
	post := r.svc.ExportState()
	if !reflect.DeepEqual(pre, post) {
		return fmt.Errorf("replica %d state after crash recovery differs from pre-crash state:\n  pre  %+v\n  post %+v", i, pre, post)
	}
	return nil
}

// tearTail simulates a crash mid-append: the last WAL segment gains a
// record header promising more bytes than follow. Recovery must detect the
// torn record and truncate it.
func tearTail(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		return err
	}
	sort.Strings(names)
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	// Header claims a 4096-byte body; only 3 junk bytes follow.
	torn := []byte{0x00, 0x10, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}
	_, err = f.Write(torn)
	return err
}

func (h *Harness) stepSnapshot(i int) error {
	if _, err := h.replicas[i].ps.SnapshotNow(); err != nil {
		return fmt.Errorf("snapshot replica %d: %w", i, err)
	}
	return nil
}

// stepPromote promotes replica i and verifies the two failover invariants
// directly: the promotion lands at exactly the next epoch (one bump per
// promotion, no epoch reuse), and the new primary's Policy Memory equals
// the oracle's — i.e. every client-acknowledged mutation survived into the
// post-failover state. The generator's episodes guarantee the structural
// precondition — a partitioned promotion follows a sync after the last ack,
// a clean one catches up on the reachable old primary's log — so a mismatch
// here is a real lost write, not a stale-standby artifact.
//
// A disk fault armed on the promoted node fails the attempt — the catch-up
// or the epoch bump cannot reach its WAL — before any effect, and
// the harness retries as an operator would; every failed attempt must have
// consumed an armed fault, and the retry must still land at epoch+1.
func (h *Harness) stepPromote(op Op) error {
	i := op.Replica
	armed := h.armedDiskFaults(i)
	res, err := h.clients[i].Promote()
	for err != nil && h.armedDiskFaults(i) < armed {
		armed = h.armedDiskFaults(i)
		res, err = h.clients[i].Promote()
	}
	if err != nil {
		return fmt.Errorf("promote replica %d: %w", i, err)
	}
	if res.Epoch != h.expectedEpoch+1 {
		return fmt.Errorf("promotion of replica %d landed at epoch %d, expected %d", i, res.Epoch, h.expectedEpoch+1)
	}
	h.expectedEpoch = res.Epoch
	h.localFaults[OpPromote]++
	if _, err := h.oracle.BumpEpoch(res.Epoch); err != nil {
		return fmt.Errorf("bump oracle epoch: %w", err)
	}
	h.model.setEpoch(res.Epoch)
	dump := h.replicas[i].svc.ExportState()
	oracleDump := h.oracle.ExportState()
	if !reflect.DeepEqual(dump, oracleDump) {
		return fmt.Errorf("acknowledged state lost across failover: new primary %d diverges from oracle:\n  primary %+v\n  oracle  %+v",
			i, dump, oracleDump)
	}
	h.roles[i] = policyhttp.RolePrimary
	h.curPrimary = i
	h.fresh[i] = true
	h.fresh[1-i] = false // its epoch now lags the bump
	if res.CaughtUp {
		// Clean switchover: the protocol demoted the peer before pulling.
		h.roles[1-i] = policyhttp.RoleStandby
	}
	return nil
}

// stepDemote steps replica i down to standby. Against a deposed primary
// this is usually a formality — the fence probe already forced it to
// self-depose — but the explicit demote is what the harness's role intent
// tracks, and it must be idempotent either way.
func (h *Harness) stepDemote(op Op) error {
	i := op.Replica
	if _, err := h.clients[i].Demote(); err != nil {
		return fmt.Errorf("demote replica %d: %w", i, err)
	}
	h.roles[i] = policyhttp.RoleStandby
	return nil
}

// stepStandbySync has every current standby pull from the primary through
// its own StandbySyncer — the only repair path there is. With both hosts
// reachable and no disk fault armed on the standby the sync MUST succeed
// and leave the standby byte-identical to a fresh primary — this is the
// heal+sync convergence invariant; the very next checkReplicas compares
// both replicas against the oracle. With a partition in force, or with an
// armed disk fault refusing the standby's own WAL appends, the attempt may
// fail: the failing append is the first of the sync and write-ahead, so the
// standby keeps exactly the state it had, its replica cursor is dropped, and
// the next sync is a full one.
func (h *Harness) stepStandbySync() error {
	for i := 0; i < numReplicas; i++ {
		peer := 1 - i
		if h.roles[i] != policyhttp.RoleStandby || h.roles[peer] != policyhttp.RolePrimary {
			continue
		}
		mayFail := h.armedDiskFaults(i) > 0 ||
			h.router.isPartitioned(h.replicas[i].host) || h.router.isPartitioned(h.replicas[peer].host)
		if err := h.syncers[i].SyncOnce(); err != nil {
			if !mayFail {
				return fmt.Errorf("standby %d failed to sync from reachable primary %d: %w", i, peer, err)
			}
			h.localFaults[failedSync]++
			continue
		}
		h.fresh[i] = h.fresh[peer]
	}
	return nil
}

// stepFenceProbe writes to a deposed primary carrying the current epoch.
// The server still believes it is primary (it was partitioned through the
// promotion), but the newer epoch in the request header must make it
// self-depose and fence the write with 412 — accepting it would be split
// brain: two servers acknowledging writes under different epochs.
func (h *Harness) stepFenceProbe(op Op) error {
	c := h.clients[op.Replica]
	c.RaiseEpoch(h.expectedEpoch)
	_, err := c.AdviseTransfers(op.Specs)
	switch {
	case err == nil:
		return fmt.Errorf("deposed replica %d accepted a write at epoch %d (split brain)", op.Replica, h.expectedEpoch)
	case policyhttp.IsFenced(err):
		h.localFaults[OpFenceProbe]++
		return nil
	default:
		return fmt.Errorf("fence probe on replica %d: want 412, got: %w", op.Replica, err)
	}
}

// checkReplicas verifies the oracle against the state invariants and the
// order-free model, and every fresh replica against the oracle, dump for
// dump. The comparison is direct (ExportState, not HTTP — a partitioned
// replica must still be checkable) and gated on freshness: a standby
// legitimately lags the oracle between syncs, so only replicas required to
// be current are compared.
func (h *Harness) checkReplicas() error {
	oracleDump := h.oracle.ExportState()
	if err := oracleDump.Verify(); err != nil {
		return fmt.Errorf("oracle state: %w", err)
	}
	if err := h.model.checkDump(oracleDump); err != nil {
		return err
	}
	if err := h.checkDecisions(); err != nil {
		return err
	}
	for i := 0; i < numReplicas; i++ {
		if !h.fresh[i] {
			continue
		}
		dump := h.replicas[i].svc.ExportState()
		if !reflect.DeepEqual(dump, oracleDump) {
			return fmt.Errorf("replica %d (%s, fresh) diverged from oracle:\n  replica %+v\n  oracle  %+v",
				i, h.roles[i], dump, oracleDump)
		}
	}
	return nil
}

// checkDecisions asserts decision-provenance exactly-once: for every op,
// the records the primary committed while serving acknowledged calls —
// through lost responses, retries, duplicate deliveries and replays —
// equal the records of the oracle, which saw each acknowledged call once
// and nothing else (no retries, no replays, no rejections). Any mismatch
// means an operation produced zero or duplicate provenance. Whole replica
// rings are not compared — a crash-recovered replica legitimately
// rebuilds only the WAL tail since its last snapshot.
func (h *Harness) checkDecisions() error {
	for _, op := range policy.OpNames() {
		if got, want := h.oracle.DecisionCount(op), h.acked[op]; got != want {
			return fmt.Errorf("decision records for %s: %d committed, %d operations acknowledged", op, got, want)
		}
	}
	// Bundle-stamped provenance: every record carries the version of the
	// bundle that produced it, and the newest record must have been
	// produced under the currently active version.
	recs := h.oracle.Decisions(0)
	for _, r := range recs {
		if r.Bundle == "" {
			return fmt.Errorf("decision record %s/%d carries no bundle version", r.Op, r.Seq)
		}
	}
	if len(recs) > 0 {
		if got, want := recs[len(recs)-1].Bundle, h.model.activeVersion(); got != want {
			return fmt.Errorf("newest decision record stamped with bundle %q, active bundle is %q", got, want)
		}
	}
	return nil
}

// runSchedule generates and executes one randomized schedule, returning
// the executed trace (for shrinking and replay), the fault counts, and the
// first invariant violation, if any.
func runSchedule(baseDir string, sched Schedule) ([]Op, map[string]int, error) {
	h, err := newHarness(baseDir, sched)
	if err != nil {
		return nil, nil, err
	}
	defer h.Close()
	g := &gen{rng: rand.New(rand.NewSource(sched.Seed)), h: h, dead: make(map[string]bool)}
	g.initBundles(sched.Config)
	var trace []Op
	for i := 0; i < sched.Config.OpCount; i++ {
		op := g.next(sched.Config)
		trace = append(trace, op)
		if err := h.exec(op); err != nil {
			return trace, h.faultCounts(), err
		}
	}
	return trace, h.faultCounts(), nil
}

// replayTrace executes a fixed trace under a schedule's configuration —
// the replay half of shrink-and-replay debugging.
func replayTrace(baseDir string, sched Schedule, trace []Op) error {
	h, err := newHarness(baseDir, sched)
	if err != nil {
		return err
	}
	defer h.Close()
	for _, op := range trace {
		if err := h.exec(op); err != nil {
			return err
		}
	}
	return nil
}
