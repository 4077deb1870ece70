package faultsim

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"policyflow/internal/bundle"
	"policyflow/internal/policy"
)

// Op kinds. Every schedule is a flat list of Ops, serializable to JSON so
// a failing trace can be printed, shrunk and replayed byte-for-byte.
const (
	OpAdvise         = "advise"
	OpReport         = "report"
	OpCleanup        = "cleanup"
	OpCleanupReport  = "cleanupReport"
	OpSetThreshold   = "setThreshold"
	OpCrash          = "crash"          // close a replica's store, reopen, compare state
	OpTornCrash      = "tornCrash"      // crash + append a torn record to the WAL tail first
	OpDiskFault      = "diskFault"      // arm N injected WAL append failures on a replica
	OpShed           = "shed"           // arm N admission-control sheds (429) on a replica
	OpSnapshot       = "snapshot"       // force a snapshot on a replica
	OpRenewLease     = "renewLease"     // explicitly renew a workflow's lease
	OpAdvanceClock   = "advanceClock"   // advance the logical clock, expiring stale leases
	OpClientCrash    = "clientCrash"    // a client dies: it stops issuing ops, holdings stay pinned
	OpActivateBundle = "activateBundle" // activate a policy bundle document
	OpRollbackBundle = "rollbackBundle" // re-activate the previously active bundle

	// Failover operations. Apart from standbySync, which the workload also
	// draws on its own, the generator emits them in scripted episodes —
	// sync, partition, promote, heal, probe, demote, sync — interleaved with
	// the workload, so schedules exercise full failovers with the structural
	// precondition (standby caught up before the primary partitions) that
	// makes the durability invariant checkable.
	OpPartition   = "partition"   // cut a replica's host off the network
	OpHeal        = "heal"        // reconnect every partitioned host
	OpPromote     = "promote"     // promote a replica to primary (epoch bump)
	OpDemote      = "demote"      // demote a replica to standby
	OpStandbySync = "standbySync" // every current standby pulls from the primary
	OpFenceProbe  = "fenceProbe"  // write to a deposed primary at the new epoch; must be fenced
)

// Op is one step of a schedule.
type Op struct {
	Kind   string      `json:"kind"`
	Faults []FaultSpec `json:"faults,omitempty"` // HTTP faults queued before the step

	Specs         []policy.TransferSpec    `json:"specs,omitempty"`
	Report        *policy.CompletionReport `json:"report,omitempty"`
	Cleanups      []policy.CleanupSpec     `json:"cleanups,omitempty"`
	CleanupReport *policy.CleanupReport    `json:"cleanupReport,omitempty"`

	SrcHost string `json:"srcHost,omitempty"` // setThreshold
	DstHost string `json:"dstHost,omitempty"`
	Max     int    `json:"max,omitempty"`

	Replica int  `json:"replica,omitempty"` // crash/tornCrash/diskFault/shed/snapshot
	Count   int  `json:"count,omitempty"`   // diskFault/shed: failures to arm
	Invalid bool `json:"invalid,omitempty"` // advise/cleanup: deliberately malformed

	Workflow string  `json:"workflow,omitempty"` // renewLease/clientCrash
	Now      float64 `json:"now,omitempty"`      // advanceClock

	BundleDoc json.RawMessage `json:"bundleDoc,omitempty"` // activateBundle
}

// mutation names the logged op a workload Op runs and its payload, of the
// type policy.Service.Execute takes; "" for the fault and failover kinds.
func (op Op) mutation() (string, any) {
	switch op.Kind {
	case OpAdvise:
		return policy.OpAdviseTransfers, op.Specs
	case OpReport:
		return policy.OpReportTransfers, *op.Report
	case OpCleanup:
		return policy.OpAdviseCleanups, op.Cleanups
	case OpCleanupReport:
		return policy.OpReportCleanups, *op.CleanupReport
	case OpSetThreshold:
		return policy.OpSetThreshold, policy.ThresholdOp{SourceHost: op.SrcHost, DestHost: op.DstHost, Max: op.Max}
	case OpRenewLease:
		return policy.OpRenewLease, policy.LeaseOp{WorkflowID: op.Workflow}
	case OpAdvanceClock:
		return policy.OpAdvanceClock, policy.ClockOp{Now: op.Now}
	case OpActivateBundle:
		return policy.OpActivateBundle, policy.BundleOp{Doc: op.BundleDoc}
	case OpRollbackBundle:
		return policy.OpActivateBundle, policy.BundleOp{Rollback: true}
	}
	return "", nil
}

// ScheduleConfig fixes the service configuration a schedule runs under.
type ScheduleConfig struct {
	Algorithm      policy.Algorithm `json:"algorithm"`
	Threshold      int              `json:"threshold"`
	DefaultStreams int              `json:"defaultStreams"`
	ClusterFactor  int              `json:"clusterFactor"`
	OpCount        int              `json:"opCount"`
	FaultProb      float64          `json:"faultProb"`
	// LeaseTTL enables the lease subsystem when positive; the generator
	// then also draws renewLease, advanceClock and clientCrash operations.
	LeaseTTL float64 `json:"leaseTtl,omitempty"`
}

// Schedule identifies one randomized run: regenerate it from the seed.
type Schedule struct {
	Seed   int64          `json:"seed"`
	Config ScheduleConfig `json:"config"`
}

// randomSchedule derives a schedule configuration from a seed. The same
// seed always yields the same configuration and, through the generator,
// the same operation sequence. The op budget leaves room for a failover
// episode or two, which spend six to eight operations each.
func randomSchedule(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	algos := []policy.Algorithm{policy.AlgoGreedy, policy.AlgoGreedy, policy.AlgoBalanced, policy.AlgoBalanced, policy.AlgoNone}
	return Schedule{
		Seed: seed,
		Config: ScheduleConfig{
			Algorithm:      algos[rng.Intn(len(algos))],
			Threshold:      2 + rng.Intn(8),   // 2..9
			DefaultStreams: 1 + rng.Intn(4),   // 1..4
			ClusterFactor:  1 + rng.Intn(3),   // 1..3
			OpCount:        24 + rng.Intn(17), // 24..40
			FaultProb:      0.25 + rng.Float64()*0.25,
			// Half the schedules exercise liveness: leases short enough that
			// generated clock jumps routinely expire them.
			LeaseTTL: float64(rng.Intn(2)) * (2 + float64(rng.Intn(20))), // 0 or 2..21
		},
	}
}

// gen draws operations for a running harness. Every random choice goes
// through the single rng in a fixed order, so a (seed, config) pair fully
// determines the trace; nothing iterates a Go map.
type gen struct {
	rng    *rand.Rand
	h      *Harness
	reqSeq int
	// now is the generator's logical clock; advanceClock ops carry it, and
	// it only moves forward.
	now float64
	// dead marks workflows whose client crashed: the generator stops
	// issuing operations on their behalf — no advises, no reports — so
	// their holdings stay pinned until a lease expiry reclaims them.
	dead map[string]bool
	// variants are pre-drawn bundle documents the schedule activates;
	// activeVar/prevVar track which variant the generator believes is
	// active (-1 = the compiled-in v0) so rollbacks are drawn sensibly.
	variants  [][]byte
	activeVar int
	prevVar   int
	hasPrev   bool
	// Failover-episode state: pending ops are emitted next, verbatim —
	// once the standby is fresh, while needSync is set; epilogue is queued
	// after epilogueIn more workload ops. A non-nil epilogue marks an
	// episode in flight, so episodes never nest.
	pending    []Op
	needSync   bool
	epilogue   []Op
	epilogueIn int
}

var (
	genHosts    = []string{"hostA", "hostB", "hostC"}
	genWfs      = []string{"wf-a", "wf-b", "wf-c"}
	genClusters = []string{"", "cl-1", "cl-2"}
)

func (g *gen) requestID() string {
	g.reqSeq++
	return fmt.Sprintf("r-%06d", g.reqSeq)
}

// liveWfs returns the workflows whose clients are still running, in the
// fixed genWfs order.
func (g *gen) liveWfs() []string {
	live := make([]string, 0, len(genWfs))
	for _, wf := range genWfs {
		if !g.dead[wf] {
			live = append(live, wf)
		}
	}
	return live
}

func (g *gen) fileURL(host string, n int) string {
	return fmt.Sprintf("gsiftp://%s/data/f-%02d", host, n)
}

// transferSpec draws one spec. Files live on a small set of hosts so
// schedules collide on dest URLs and host pairs often enough to exercise
// the duplicate-suppression and threshold rules.
func (g *gen) transferSpec() policy.TransferSpec {
	src := genHosts[g.rng.Intn(len(genHosts))]
	dst := genHosts[g.rng.Intn(len(genHosts))]
	for dst == src {
		dst = genHosts[g.rng.Intn(len(genHosts))]
	}
	n := g.rng.Intn(12)
	live := g.liveWfs()
	return policy.TransferSpec{
		RequestID:        g.requestID(),
		WorkflowID:       live[g.rng.Intn(len(live))],
		ClusterID:        genClusters[g.rng.Intn(len(genClusters))],
		SourceURL:        g.fileURL(src, n),
		DestURL:          g.fileURL(dst, n),
		RequestedStreams: g.rng.Intn(5), // 0 → service default
	}
}

// faults draws the HTTP faults to queue before a client op. The breaking
// FaultDuplicateNoKey kind is never drawn here — it exists only for the
// detector self-test.
var scheduleFaultKinds = []FaultKind{FaultLoseRequest, FaultDropResponse, Fault503, FaultDuplicate}

func (g *gen) faults(prob float64) []FaultSpec {
	if g.rng.Float64() >= prob {
		return nil
	}
	n := 1 + g.rng.Intn(2)
	fs := make([]FaultSpec, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, FaultSpec{
			Replica: g.rng.Intn(numReplicas),
			Kind:    scheduleFaultKinds[g.rng.Intn(len(scheduleFaultKinds))],
		})
	}
	return fs
}

// initBundles pre-draws the bundle variants a schedule activates. Every
// random choice goes through the single rng before any op is drawn, so
// the variant set is part of the (seed, config) determinism contract.
func (g *gen) initBundles(sc ScheduleConfig) {
	g.activeVar = -1 // compiled-in v0
	algos := []string{bundle.AlgoGreedy, bundle.AlgoBalanced, bundle.AlgoPassthrough}
	pairCandidates := [][2]string{{"hostA", "hostB"}, {"hostB", "hostC"}}
	for i := 0; i < 3; i++ {
		b := bundle.Bundle{
			SchemaVersion:    bundle.SchemaVersion,
			Version:          fmt.Sprintf("sim-v%d", i+1),
			Description:      "fault-schedule variant",
			Algorithm:        algos[g.rng.Intn(len(algos))],
			DefaultStreams:   1 + g.rng.Intn(4),
			MinStreams:       1,
			DefaultThreshold: 2 + g.rng.Intn(8),
			ClusterFactor:    1 + g.rng.Intn(3),
		}
		for _, pc := range pairCandidates {
			if g.rng.Intn(2) == 0 {
				b.PairThresholds = append(b.PairThresholds, bundle.PairThreshold{
					SourceHost: pc[0], DestHost: pc[1], Max: 1 + g.rng.Intn(8),
				})
			}
		}
		doc, err := json.Marshal(&b)
		if err != nil {
			panic(fmt.Sprintf("faultsim: marshal bundle variant: %v", err))
		}
		g.variants = append(g.variants, doc)
	}
}

// genBundleOp draws a bundle activation or — when a previous bundle
// exists — occasionally a rollback. Re-activating the current variant is
// allowed: the service must treat it as an idempotent no-op.
func (g *gen) genBundleOp(sc ScheduleConfig) Op {
	if g.hasPrev && g.rng.Float64() < 0.35 {
		g.activeVar, g.prevVar = g.prevVar, g.activeVar
		return Op{Kind: OpRollbackBundle, Faults: g.faults(sc.FaultProb)}
	}
	vi := g.rng.Intn(len(g.variants))
	if vi != g.activeVar {
		g.prevVar, g.hasPrev = g.activeVar, true
		g.activeVar = vi
	}
	return Op{Kind: OpActivateBundle, BundleDoc: g.variants[vi], Faults: g.faults(sc.FaultProb)}
}

// next draws the next operation given the harness's current state:
// scripted episode ops take priority, then a new episode may start, and
// otherwise the workload draws. A partitioned episode's opening sync can
// fail when a disk fault is armed on the standby; the promotion waits —
// syncing again — until the standby really holds every acknowledged
// mutation.
func (g *gen) next(sc ScheduleConfig) Op {
	if g.needSync {
		if !g.h.fresh[1-g.h.curPrimary] {
			return Op{Kind: OpStandbySync}
		}
		g.needSync = false
	}
	if len(g.pending) > 0 {
		op := g.pending[0]
		g.pending = g.pending[1:]
		return op
	}
	if g.epilogue != nil {
		if g.epilogueIn > 0 {
			g.epilogueIn--
		} else {
			ops := g.epilogue
			g.epilogue = nil
			g.pending = ops[1:]
			return ops[0]
		}
	} else if g.rng.Float64() < 0.15 {
		return g.startFailoverEpisode()
	}
	return g.draw(sc)
}

// startFailoverEpisode scripts one failover. A partitioned failover begins
// with a standby sync so the standby holds every acknowledged mutation
// before the promotion — the structural precondition that makes "no acked
// write is lost" an invariant rather than a hope; a clean switchover relies
// on the promotion's own catch-up instead. Both end with a fence probe
// against the deposed primary plus the sync that must reconverge it.
func (g *gen) startFailoverEpisode() Op {
	old := g.h.curPrimary
	nw := 1 - old
	probe := g.transferSpec()
	if g.rng.Float64() < 0.6 {
		// Partitioned failover: the primary drops off the network after
		// the sync, the standby is promoted without a catch-up pull, and
		// after the heal the old primary must self-depose on first contact.
		g.pending = []Op{
			{Kind: OpPartition, Replica: old},
			{Kind: OpPromote, Replica: nw},
		}
		g.epilogue = []Op{
			{Kind: OpHeal},
			{Kind: OpFenceProbe, Replica: old, Specs: []policy.TransferSpec{probe}},
			{Kind: OpDemote, Replica: old},
			{Kind: OpStandbySync},
		}
		g.epilogueIn = 1 + g.rng.Intn(3)
		g.needSync = true
		return Op{Kind: OpStandbySync}
	}
	// Clean switchover: the promote protocol itself demotes the peer and
	// catches up on its log, so it needs no opening sync — the catch-up
	// must carry every write acknowledged since the standby's last one —
	// and only the probe and the sync remain.
	g.epilogue = []Op{
		{Kind: OpFenceProbe, Replica: old, Specs: []policy.TransferSpec{probe}},
		{Kind: OpStandbySync},
	}
	g.epilogueIn = 1 + g.rng.Intn(3)
	return Op{Kind: OpPromote, Replica: nw}
}

// draw picks one op from the workload distribution. Crashes, disk faults
// and sheds land on either node of the pair.
func (g *gen) draw(sc ScheduleConfig) Op {
	if sc.LeaseTTL > 0 && g.rng.Float64() < 0.18 {
		return g.genLeaseOp(sc)
	}
	roll := g.rng.Float64()
	switch {
	case roll < 0.30:
		return g.genAdvise(sc)
	case roll < 0.50:
		return g.genReport(sc)
	case roll < 0.62:
		return g.genCleanup(sc)
	case roll < 0.72:
		return g.genCleanupReport(sc)
	case roll < 0.79:
		return Op{
			Kind:    OpSetThreshold,
			Faults:  g.faults(sc.FaultProb),
			SrcHost: genHosts[g.rng.Intn(len(genHosts))],
			DstHost: genHosts[g.rng.Intn(len(genHosts))],
			Max:     1 + g.rng.Intn(8), // statusFor maps max<1 to 500, so stay valid
		}
	case roll < 0.84:
		return g.genBundleOp(sc)
	case roll < 0.88:
		torn := g.rng.Intn(3) == 0
		kind := OpCrash
		if torn {
			kind = OpTornCrash
		}
		return Op{Kind: kind, Replica: g.rng.Intn(numReplicas)}
	case roll < 0.91:
		return Op{Kind: OpDiskFault, Replica: g.rng.Intn(numReplicas), Count: 1}
	case roll < 0.94:
		// 1 = shed then the client's retry succeeds; 3 = every attempt
		// shed, the client reports busy and the op must be a no-op.
		return Op{Kind: OpShed, Replica: g.rng.Intn(numReplicas), Count: 1 + g.rng.Intn(3)}
	case roll < 0.97:
		return Op{Kind: OpStandbySync}
	default:
		return Op{Kind: OpSnapshot, Replica: g.rng.Intn(numReplicas)}
	}
}

// genLeaseOp draws a liveness operation: renew a live workflow's lease,
// advance the logical clock (sometimes far enough to expire every current
// lease), or crash a client process.
func (g *gen) genLeaseOp(sc ScheduleConfig) Op {
	switch roll := g.rng.Float64(); {
	case roll < 0.30:
		live := g.liveWfs()
		return Op{Kind: OpRenewLease, Workflow: live[g.rng.Intn(len(live))], Faults: g.faults(sc.FaultProb)}
	case roll < 0.85:
		delta := 0.5 + g.rng.Float64()*sc.LeaseTTL*0.4
		if g.rng.Intn(4) == 0 {
			// Jump past every deadline currently in force.
			delta += sc.LeaseTTL + 1
		}
		g.now += delta
		return Op{Kind: OpAdvanceClock, Now: g.now, Faults: g.faults(sc.FaultProb)}
	default:
		live := g.liveWfs()
		if len(live) <= 1 {
			// Keep at least one client running; advance the clock instead.
			g.now++
			return Op{Kind: OpAdvanceClock, Now: g.now, Faults: g.faults(sc.FaultProb)}
		}
		wf := live[g.rng.Intn(len(live))]
		g.dead[wf] = true
		return Op{Kind: OpClientCrash, Workflow: wf}
	}
}

func (g *gen) genAdvise(sc ScheduleConfig) Op {
	if g.rng.Float64() < 0.10 {
		// Deliberately malformed batch: the primary must reject it with a
		// 4xx and change no state.
		if g.rng.Intn(2) == 0 {
			return Op{Kind: OpAdvise, Invalid: true, Faults: g.faults(sc.FaultProb)}
		}
		spec := g.transferSpec()
		spec.DestURL = ""
		return Op{Kind: OpAdvise, Invalid: true, Specs: []policy.TransferSpec{spec}, Faults: g.faults(sc.FaultProb)}
	}
	n := 1 + g.rng.Intn(3)
	specs := make([]policy.TransferSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, g.transferSpec())
	}
	return Op{Kind: OpAdvise, Specs: specs, Faults: g.faults(sc.FaultProb)}
}

func (g *gen) genReport(sc ScheduleConfig) Op {
	// Only live clients report: a crashed workflow's transfers stay
	// in-flight until its lease expires.
	ids := sortedKeys(g.h.model.inProgress, func(t *modelTransfer) bool { return !g.dead[t.workflow] })
	if len(ids) == 0 {
		return g.genAdvise(sc)
	}
	perm := g.rng.Perm(len(ids))
	n := 1 + g.rng.Intn(len(ids))
	rep := &policy.CompletionReport{}
	for i := 0; i < n; i++ {
		id := ids[perm[i]]
		if g.rng.Float64() < 0.3 {
			rep.FailedIDs = append(rep.FailedIDs, id)
		} else {
			rep.TransferIDs = append(rep.TransferIDs, id)
		}
	}
	if g.rng.Float64() < 0.15 {
		rep.TransferIDs = append(rep.TransferIDs, fmt.Sprintf("t-%08d", 900000+g.rng.Intn(1000)))
	}
	return Op{Kind: OpReport, Report: rep, Faults: g.faults(sc.FaultProb)}
}

func (g *gen) genCleanup(sc ScheduleConfig) Op {
	live := g.liveWfs()
	if g.rng.Float64() < 0.08 {
		spec := policy.CleanupSpec{RequestID: g.requestID(), WorkflowID: live[g.rng.Intn(len(live))]}
		return Op{Kind: OpCleanup, Invalid: true, Cleanups: []policy.CleanupSpec{spec}, Faults: g.faults(sc.FaultProb)}
	}
	urls := sortedKeys(g.h.model.resources, nil)
	n := 1 + g.rng.Intn(2)
	specs := make([]policy.CleanupSpec, 0, n)
	for i := 0; i < n; i++ {
		var url string
		if len(urls) > 0 && g.rng.Float64() < 0.8 {
			url = urls[g.rng.Intn(len(urls))]
		} else {
			host := genHosts[g.rng.Intn(len(genHosts))]
			url = g.fileURL(host, g.rng.Intn(12))
		}
		specs = append(specs, policy.CleanupSpec{
			RequestID:  g.requestID(),
			WorkflowID: live[g.rng.Intn(len(live))],
			FileURL:    url,
		})
	}
	return Op{Kind: OpCleanup, Cleanups: specs, Faults: g.faults(sc.FaultProb)}
}

func (g *gen) genCleanupReport(sc ScheduleConfig) Op {
	ids := sortedKeys(g.h.model.cleanups, func(c *modelCleanup) bool { return !g.dead[c.workflow] })
	if len(ids) == 0 {
		return g.genCleanup(sc)
	}
	perm := g.rng.Perm(len(ids))
	n := 1 + g.rng.Intn(len(ids))
	rep := &policy.CleanupReport{}
	for i := 0; i < n; i++ {
		rep.CleanupIDs = append(rep.CleanupIDs, ids[perm[i]])
	}
	if g.rng.Float64() < 0.15 {
		rep.CleanupIDs = append(rep.CleanupIDs, fmt.Sprintf("c-%08d", 900000+g.rng.Intn(1000)))
	}
	return Op{Kind: OpCleanupReport, CleanupReport: rep, Faults: g.faults(sc.FaultProb)}
}
