package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"policyflow/internal/executor"
	"policyflow/internal/policy"
)

// simRun is what one simulation reported.
type simRun struct {
	sim      *sim    // the simulated world; dropped once the numbers are out
	buildMs  float64 // montage.Generate + Plan + stack assembly
	runMs    float64 // env.Run wall time
	wallMs   float64 // build + run
	makespan float64 // simulated seconds until both workflows finished
	tasks    int
	byOp     [4]samples // advisor call wall times, us, indexed by advisorOps
	adviseAt []time.Time

	firings, facts       float64
	executed, suppressed int64 // transfers the PTT ran / the policy removed
	advised, removed     int   // policy.Service.Stats()
}

// simulate builds and runs one two-workflow simulation and checks its outputs.
func simulate(rs *runState, seed int64, tr *tracer) (*simRun, error) {
	var trace uint64
	var t0 int64
	if tr != nil {
		trace = tr.newID()
		t0 = tr.now()
	}
	start := time.Now()
	s, err := buildSim(seed, tr, trace)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	makespan := s.env.Run(0)
	end := time.Now()
	if tr != nil {
		t1 := t0 + int64(built.Sub(start))
		tr.add(span{trace, tr.newID(), 0, "workflow.plan", "workflow", t0, t1})
		tr.add(span{trace, trace, 0, "sim.run", "simnet", t1, t1 + int64(end.Sub(built))})
	}
	r := &simRun{sim: s, makespan: makespan,
		buildMs: float64(built.Sub(start)) / 1e6, runMs: float64(end.Sub(built)) / 1e6, wallMs: float64(end.Sub(start)) / 1e6}
	for i, h := range s.handles {
		res, err := h.Result()
		rs.op(err, fmt.Sprintf("workflow %d of seed %d", i+1, seed))
		if res != nil {
			r.tasks += res.Completed
		}
	}
	st := s.ptt.Stats()
	r.byOp, r.adviseAt = s.adv.byOp, s.adv.adviseDone
	r.firings, r.facts = float64(s.svc.RuleFirings()), float64(s.svc.FactCount())
	r.executed, r.suppressed = st.TransfersExecuted, st.TransfersSuppressed
	r.advised, r.removed = s.svc.Stats()
	rs.check(st.TransfersSuppressed > 0, "seed %d: no transfer was suppressed across the two workflows", seed)
	peak := 0
	for pr, pipe := range s.fab.Pipes() {
		if strings.Contains(pr.Src, "futuregrid") && pipe.MaxStreamsSeen() > peak {
			peak = pipe.MaxStreamsSeen()
		}
	}
	// Table IV's guarantee: with 20 staging slots, greedy allocation at
	// threshold 50 and 8 default streams never holds more than this.
	limit := policy.GreedyMaxStreams(50, 8, executor.DefaultConfig().StagingSlots)
	rs.check(peak <= limit, "seed %d: peak WAN streams %d exceed Table IV's %d", seed, peak, limit)
	return r, nil
}

// runMontage is embed-montage: no HTTP, no WAL; one generator goroutine
// runs simulation after simulation, seeds derived from --seed, each with a
// fresh in-process policy service whose state grows from empty.
func runMontage(rs *runState) error {
	var tr *tracer
	if rs.trace {
		tr = newTracer()
	}
	simSeed := func(i int) int64 { return rs.seed*100003 + int64(i) }

	// Set-up: warm-up runs, the first seed twice to check determinism.
	var setups []float64
	var first float64
	var warm *simRun
	for i := 0; i < rs.sizes.simWarm; i++ {
		var err error
		if warm, err = simulate(rs, simSeed(0), nil); err != nil {
			return err
		}
		if i == 0 {
			first = warm.makespan
		}
		rs.check(warm.makespan == first, "seed %d gave makespan %v then %v", simSeed(0), first, warm.makespan)
		setups = append(setups, warm.wallMs/1e3)
	}
	// Live heap with a finished simulation's world still referenced, taken
	// here so the measured phase's own bookkeeping is not in it.
	heap := heapLiveMB()
	runtime.KeepAlive(warm)

	// measure runs simulations for d; it returns them with the phase's start
	// and length and what the runtime did meanwhile.
	measure := func(d time.Duration, tr *tracer) ([]*simRun, time.Time, time.Duration, memDelta) {
		var runs []*simRun
		mem := readMem()
		start := time.Now()
		for i := 1; time.Since(start) < d; i++ {
			r, err := simulate(rs, simSeed(i), tr)
			if err != nil {
				rs.op(err, "simulate")
				continue
			}
			r.sim = nil // keep the numbers, drop the world
			runs = append(runs, r)
		}
		return runs, start, time.Since(start), memSince(mem)
	}

	if !rs.trace {
		runs, start, elapsed, mem := measure(rs.measureFor, nil)
		if len(runs) == 0 {
			return fmt.Errorf("no simulation completed")
		}
		var wall, wait samples
		var waitAt []time.Time
		for _, r := range runs {
			wall = append(wall, r.wallMs)
			wait = append(wait, r.byOp[0]...)
			waitAt = append(waitAt, r.adviseAt...)
		}
		// Advise calls are plentiful (about 3000 a second), so their
		// percentiles are window medians like the serve workloads'.
		waits := cutWindows(wait, waitAt, start, rs.measureFor)
		tail := tailPct[rs.workload]
		m := rs.metrics
		m.set("setup_s", median(setups))
		m.set("ops_per_s", float64(len(runs))/elapsed.Seconds())
		m.set("op_p50_ms", wall.pct(50))
		m.set("op_tail_ms", wall.pct(tail))
		m.set("wait_p50_us", waits.median(func(s samples) float64 { return s.pct(50) }))
		m.set("wait_tail_us", waits.median(func(s samples) float64 { return s.pct(tail) }))
		m.set("allocs_per_op", float64(mem.mallocs)/float64(len(runs)))
		m.set("heap_live_mb", heap)
		rs.note("runs", len(runs))
		rs.note("wait_samples", len(wait))
		return nil
	}

	base, _, baseElapsed, _ := measure(rs.measureFor/2, nil)
	runs, _, elapsed, mem := measure(rs.measureFor/2, tr)
	if len(runs) == 0 || len(base) == 0 {
		return fmt.Errorf("no simulation completed")
	}
	if err := tr.write(rs.tracePath()); err != nil {
		return err
	}
	rs.check(tr.dropped == 0, "span buffer overflowed: %d spans dropped", tr.dropped)

	n := float64(len(runs))
	var byOp [4]samples
	var build, run, wall, advisorMs, makespan, tasks, firings, facts, calls float64
	var executed, suppressed int64
	var advised, removed int
	for _, r := range runs {
		build += r.buildMs
		run += r.runMs
		wall += r.wallMs
		makespan += r.makespan
		tasks += float64(r.tasks)
		firings += r.firings
		facts += r.facts
		for op := range byOp {
			byOp[op] = append(byOp[op], r.byOp[op]...)
			calls += float64(len(r.byOp[op]))
			for _, us := range r.byOp[op] {
				advisorMs += us / 1e3
			}
		}
		executed += r.executed
		suppressed += r.suppressed
		advised += r.advised
		removed += r.removed
	}
	m := rs.metrics
	for op, name := range advisorOps {
		m.set("policy."+name+"_us", byOp[op].mean())
	}
	m.set("policy.calls_per_run", calls/n)
	m.set("policy.facts_resident", facts/n)
	m.set("policy.suppressed_frac", float64(removed)/float64(advised+removed))
	m.set("rules.firings_per_run", firings/n)
	m.set("workflow.plan_ms", build/n)
	m.set("simnet.run_self_ms", (run-advisorMs)/n)
	m.set("simnet.makespan_sim_s", makespan/n)
	m.set("transfer.transfers_executed", float64(executed)/n)
	m.set("transfer.transfers_suppressed", float64(suppressed)/n)
	m.set("executor.tasks_per_run", tasks/n)
	mem.report(m, n)
	m.set("trace.overhead_frac", 1-(n/elapsed.Seconds())/(float64(len(base))/baseElapsed.Seconds()))
	m.set("trace.closure_frac", (build+run)/wall)
	rs.note("runs", len(runs))
	return nil
}
