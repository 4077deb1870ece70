package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

// recoverRig is recover-failover's fixture: a WAL to replay cold, the same
// history compacted behind a snapshot, and a live primary/standby pair.
type recoverRig struct {
	walDir, snapDir string
	preCrash        []byte // the state both recoveries must reproduce
	walBytes        int64
	pair            *pair
	primary         int
	cycler          *cycleClient // drives cycles through the ReplicatedClient
	fresh           int          // counter behind the per-round file names
}

// buildWAL writes rs.sizes.walRecords mutation records into dir: a preload
// of a quarter as many resident files (20 per record), then full cycles,
// all driven straight at the engine.
func buildWAL(rs *runState, dir string) (preCrash []byte, walBytes int64, err error) {
	svc, ps, _, err := recoverStore(dir)
	if err != nil {
		return nil, 0, err
	}
	resident := rs.sizes.walRecords / 4
	if err := preload(svc, resident); err != nil {
		return nil, 0, err
	}
	c := &cycleClient{id: 9, calls: callsOfAdvisor(svc), run: rs, resident: resident,
		rng: rand.New(rand.NewSource(rs.seed))}
	for int(ps.LastSeq())+4 <= rs.sizes.walRecords {
		c.cycle()
	}
	// Top up to the exact count with single advises of fresh files.
	for i := 0; int(ps.LastSeq()) < rs.sizes.walRecords; i++ {
		_, err := svc.AdviseTransfers([]policy.TransferSpec{transferSpec("wf-topup", fmt.Sprintf("topup-%d", i))})
		rs.op(err, "top-up advise")
	}
	if preCrash, err = stateBytes(svc); err != nil {
		return nil, 0, err
	}
	if err := ps.Close(); err != nil {
		return nil, 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			walBytes += info.Size()
		}
	}
	return preCrash, walBytes, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func setupRecover(rs *runState, tr *tracer) (*recoverRig, error) {
	g := &recoverRig{walDir: rs.dataDir("wal"), snapDir: rs.dataDir("snap")}
	var err error
	if g.preCrash, g.walBytes, err = buildWAL(rs, g.walDir); err != nil {
		return nil, err
	}
	if err := copyDir(g.walDir, g.snapDir); err != nil {
		return nil, err
	}
	_, ps, _, err := recoverStore(g.snapDir)
	if err != nil {
		return nil, err
	}
	if _, err := ps.SnapshotNow(); err != nil {
		return nil, err
	}
	if err := ps.Close(); err != nil {
		return nil, err
	}
	g.pair, err = startPair([2]string{rs.dataDir("node"), rs.dataDir("node")}, rs.sizes.resident, tr)
	if err != nil {
		return nil, err
	}
	g.cycler = &cycleClient{id: 0, calls: callsOfAdvisor(g.pair.rc), run: rs, resident: rs.sizes.resident,
		rng: rand.New(rand.NewSource(rs.seed))}
	return g, nil
}

func (g *recoverRig) stop() error { return g.pair.stop() }

// roundTimes is one round's timings in milliseconds.
type roundTimes struct {
	recovery, snapRestore, cycles, standbySync float64
	promote, switchover, fullSync, snapshot    float64
	rest                                       float64 // fence probe + cleanup of the hand-over files
	wall                                       float64
	snapshotBytes, archiveBytes                float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// coldRecover boots a fresh engine from dir inside timed, then checks what
// it recovered outside it.
func (g *recoverRig) coldRecover(rs *runState, dir string, wantReplayed int, fromSnapshot bool,
	timed func(fn func()) time.Duration) time.Duration {
	var svc *policy.Service
	var ps *durable.PolicyStore
	var stats durable.RecoveryStats
	var err error
	took := timed(func() { svc, ps, stats, err = recoverStore(dir) })
	rs.op(err, "recover "+dir)
	if err != nil {
		return took
	}
	defer ps.Close()
	rs.check(stats.Replayed == wantReplayed && (stats.SnapshotSeq > 0) == fromSnapshot,
		"recovery of %s: replayed %d (want %d), snapshot seq %d", dir, stats.Replayed, wantReplayed, stats.SnapshotSeq)
	got, err := stateBytes(svc)
	rs.check(err == nil && bytes.Equal(got, g.preCrash), "recovered state of %s differs from the pre-crash state", dir)
	return took
}

// round is one unit of recover-failover: a cold recovery from the WAL, one
// from the snapshot, then a planned failover of the live pair: cycles on
// the primary, an advise left unreported, a delta sync, Promote on the
// standby, the report acked by the new primary (the switchover), a fence
// probe on the deposed node, a snapshot, and the deposed node's full resync.
func (g *recoverRig) round(rs *runState, tr *tracer) roundTimes {
	var rt roundTimes
	p := g.pair
	oldP, newP := g.primary, 1-g.primary
	var trace uint64
	if tr != nil {
		trace = tr.newID()
	}
	// timed runs fn and, when traced, records it as a child of the round.
	timed := func(name, layer string, fn func()) time.Duration {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		start := time.Now()
		fn()
		d := time.Since(start)
		if tr != nil {
			tr.add(span{trace, tr.newID(), trace, name, layer, t0, t0 + int64(d)})
		}
		return d
	}
	roundStart := time.Now()
	var roundT0 int64
	if tr != nil {
		roundT0 = tr.now()
	}

	rt.recovery = ms(g.coldRecover(rs, g.walDir, rs.sizes.walRecords, false,
		func(fn func()) time.Duration { return timed("durable.open", "durable", fn) }))
	rt.snapRestore = ms(g.coldRecover(rs, g.snapDir, 0, true,
		func(fn func()) time.Duration { return timed("durable.open_snapshot", "durable", fn) }))

	var handover []string
	rt.cycles = ms(timed("cycles", "policyhttp", func() {
		for i := 0; i < rs.sizes.roundCycles; i++ {
			g.cycler.cycle()
		}
		// Acked by the old primary, reported to the new one: no acked ID
		// may be missing after the promotion.
		g.fresh++
		var specs []policy.TransferSpec
		for j := 0; j < 3; j++ {
			specs = append(specs, transferSpec("wf-c0", fmt.Sprintf("handover-%d-%d", g.fresh, j)))
		}
		adv, err := p.rc.AdviseTransfers(specs)
		rs.op(err, "hand-over advise")
		if err == nil {
			for _, t := range adv.Transfers {
				handover = append(handover, t.ID)
			}
		}
		rs.check(len(handover) == 3 && p.rc.LastAckReplica() == oldP,
			"hand-over advise: %d transfers, acked by replica %d (primary %d)", len(handover), p.rc.LastAckReplica(), oldP)
	}))

	rt.standbySync = ms(timed("standby.sync", "policyhttp", func() {
		rs.op(p.syncers[newP].SyncOnce(), "standby delta sync")
	}))

	epochBefore := p.nodes[oldP].svc.Epoch()
	switchStart := time.Now()
	rt.promote = ms(timed("promote", "policyhttp", func() {
		res, err := p.direct[newP].Promote()
		rs.op(err, "promote")
		if err == nil {
			rs.check(res.CaughtUp && res.Epoch > epochBefore, "promote: caught up %v, epoch %d after %d", res.CaughtUp, res.Epoch, epochBefore)
		}
	}))
	timed("first_ack", "policyhttp", func() {
		ack, err := p.rc.ReportTransfers(policy.CompletionReport{TransferIDs: handover})
		rs.op(err, "first mutation after promote")
		if err == nil {
			rs.check(ack.Matched == len(handover) && p.rc.LastAckReplica() == newP,
				"first ack: matched %d of %d on replica %d (new primary %d)", ack.Matched, len(handover), p.rc.LastAckReplica(), newP)
		}
	})
	rt.switchover = ms(time.Since(switchStart))

	rt.rest = ms(timed("fence_and_cleanup", "policyhttp", func() {
		_, err := p.direct[oldP].AdviseTransfers([]policy.TransferSpec{transferSpec("wf-stale", "stale")})
		rs.op(nil, "fence probe")
		rs.check(policyhttp.IsFenced(err), "deposed primary answered %v, want 412", err)
		var cleanups []policy.CleanupSpec
		for j := 0; j < 3; j++ {
			cleanups = append(cleanups, policy.CleanupSpec{RequestID: fmt.Sprintf("ch-%d-%d", g.fresh, j), WorkflowID: "wf-c0",
				FileURL: dstBase + fmt.Sprintf("handover-%d-%d", g.fresh, j)})
		}
		cadv, err := p.rc.AdviseCleanups(cleanups)
		rs.op(err, "hand-over cleanup advise")
		if err != nil {
			return
		}
		ids := make([]string, len(cadv.Cleanups))
		for i, c := range cadv.Cleanups {
			ids[i] = c.ID
		}
		ack, err := p.rc.ReportCleanups(policy.CleanupReport{CleanupIDs: ids})
		rs.op(err, "hand-over cleanup report")
		rs.check(err != nil || ack.Matched == 3, "hand-over cleanup matched %d", ack.Matched)
	}))

	// Snapshot the new primary so the resync ships state plus a short
	// tail, as a server with -snapshot-every would.
	rt.snapshot = ms(timed("durable.snapshot", "durable", func() {
		info, err := p.direct[newP].SnapshotNow()
		rs.op(err, "snapshot")
		if err == nil {
			rt.snapshotBytes = float64(info.Bytes)
		}
	}))
	rt.fullSync = ms(timed("standby.full_sync", "policyhttp", func() {
		p.syncers[oldP].Reset()
		rs.op(p.syncers[oldP].SyncOnce(), "deposed node full sync")
	}))
	rt.wall = ms(time.Since(roundStart))
	if tr != nil {
		tr.add(span{trace, trace, 0, "round", "bench", roundT0, roundT0 + int64(time.Since(roundStart))})
		// Outside the round's wall time: what one sync pulls over the wire.
		if arch, err := p.direct[newP].Archive(); err == nil {
			if b, err := json.Marshal(arch); err == nil {
				rt.archiveBytes = float64(len(b))
			}
		}
	}
	g.primary = newP
	return rt
}

// measure runs rounds for d.
func (g *recoverRig) measure(rs *runState, d time.Duration, tr *tracer) ([]roundTimes, time.Duration, memDelta) {
	var rounds []roundTimes
	mem := readMem()
	start := time.Now()
	for time.Since(start) < d {
		rounds = append(rounds, g.round(rs, tr))
	}
	return rounds, time.Since(start), memSince(mem)
}

// verify checks that both nodes hold the same state after the last resync
// and that the cycles left Policy Memory at its baseline. It stops the rig.
func (g *recoverRig) verify(rs *runState, baseline int) error {
	a, errA := stateBytes(g.pair.nodes[0].svc)
	b, errB := stateBytes(g.pair.nodes[1].svc)
	rs.check(errA == nil && errB == nil && bytes.Equal(a, b), "primary and standby differ after the last full sync")
	facts := g.pair.nodes[g.primary].svc.FactCount()
	rs.check(facts == baseline, "fact count %d on the primary, baseline %d", facts, baseline)
	rs.noteFlush(g.pair.nodes[g.primary])
	return g.stop()
}

func column(rounds []roundTimes, f func(roundTimes) float64) samples {
	s := make(samples, len(rounds))
	for i, r := range rounds {
		s[i] = f(r)
	}
	return s
}

// runRecover is recover-failover, the operator path: WAL replay, snapshot
// restore, archive shipping and promotion, beside serve-durable's writes.
func runRecover(rs *runState) error {
	if rs.trace {
		return runRecoverTraced(rs)
	}
	var setups []float64
	var rig *recoverRig
	for i := 0; i < rs.sizes.setups; i++ {
		if rig != nil {
			if err := rig.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if rig, err = setupRecover(rs, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	baseline := rig.pair.nodes[0].svc.FactCount()
	rig.round(rs, nil) // warm-up: connections, first full sync
	heap := heapLiveMB()
	rounds, elapsed, mem := rig.measure(rs, rs.measureFor, nil)
	if err := rig.verify(rs, baseline); err != nil {
		return err
	}
	tail := tailPct[rs.workload]
	wall := column(rounds, func(r roundTimes) float64 { return r.wall })
	switchover := column(rounds, func(r roundTimes) float64 { return r.switchover * 1e3 })
	m := rs.metrics
	m.set("setup_s", median(setups))
	m.set("ops_per_s", float64(len(rounds))/elapsed.Seconds())
	m.set("op_p50_ms", wall.pct(50))
	m.set("op_tail_ms", wall.pct(tail))
	m.set("wait_p50_us", switchover.pct(50))
	m.set("wait_tail_us", switchover.pct(tail))
	m.set("allocs_per_op", float64(mem.mallocs)/float64(len(rounds)))
	m.set("heap_live_mb", heap)
	rs.note("rounds", len(rounds))
	return nil
}

func runRecoverTraced(rs *runState) error {
	tr := newTracer() // alive during both halves, see runServeTraced
	plain, err := setupRecover(rs, nil)
	if err != nil {
		return err
	}
	plain.round(rs, nil)
	base, baseElapsed, _ := plain.measure(rs, rs.measureFor/2, nil)
	if err := plain.stop(); err != nil {
		return err
	}

	rig, err := setupRecover(rs, tr)
	if err != nil {
		return err
	}
	baseline := rig.pair.nodes[0].svc.FactCount()
	rig.round(rs, nil)
	tr.reset()
	rounds, elapsed, mem := rig.measure(rs, rs.measureFor/2, tr)
	if err := rig.verify(rs, baseline); err != nil {
		return err
	}
	if err := tr.write(rs.tracePath()); err != nil {
		return err
	}
	rs.check(tr.dropped == 0, "span buffer overflowed: %d spans dropped", tr.dropped)

	n := float64(len(rounds))
	p50 := func(f func(roundTimes) float64) float64 { return column(rounds, f).pct(50) }
	recovery := p50(func(r roundTimes) float64 { return r.recovery })
	m := rs.metrics
	m.set("durable.recovery_ms", recovery)
	m.set("durable.replay_us_per_record", recovery*1e3/float64(rs.sizes.walRecords))
	m.set("durable.wal_bytes_per_record", float64(rig.walBytes)/float64(rs.sizes.walRecords))
	m.set("durable.snapshot_restore_ms", p50(func(r roundTimes) float64 { return r.snapRestore }))
	m.set("durable.snapshot_ms", p50(func(r roundTimes) float64 { return r.snapshot }))
	m.set("durable.snapshot_bytes", p50(func(r roundTimes) float64 { return r.snapshotBytes }))
	m.set("durable.append_us", float64(tr.appendNanos)/float64(tr.appends)/1e3)
	m.set("durable.sync_us", float64(tr.syncNano)/float64(tr.syncs)/1e3)
	m.set("policyhttp.standby_sync_ms", p50(func(r roundTimes) float64 { return r.standbySync }))
	m.set("policyhttp.switchover_ms", p50(func(r roundTimes) float64 { return r.switchover }))
	m.set("policyhttp.promote_ms", p50(func(r roundTimes) float64 { return r.promote }))
	m.set("policyhttp.full_sync_ms", p50(func(r roundTimes) float64 { return r.fullSync }))
	m.set("policyhttp.archive_bytes_per_sync", p50(func(r roundTimes) float64 { return r.archiveBytes }))
	m.set("policyhttp.requests", float64(tr.requests))
	m.set("policyhttp.non2xx", float64(tr.non2xx))
	m.set("admit.batches", float64(tr.batches))
	m.set("admit.batch_size_mean", float64(tr.batchItems)/float64(tr.batches))
	m.set("admit.shed", float64(rs.shed))
	m.set("policy.facts_resident", float64(baseline))
	mem.report(m, n)
	m.set("trace.overhead_frac", 1-(n/elapsed.Seconds())/(float64(len(base))/baseElapsed.Seconds()))
	var accounted, wall float64
	for _, r := range rounds {
		accounted += r.recovery + r.snapRestore + r.cycles + r.standbySync + r.switchover + r.rest + r.snapshot + r.fullSync
		wall += r.wall
	}
	m.set("trace.closure_frac", accounted/wall)
	rs.note("rounds", len(rounds))
	return nil
}
