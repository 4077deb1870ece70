package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Workload names are normative: BENCHMARK.json, the README and the result
// files all use them.
const (
	wlServeDurable = "serve-durable"
	wlServeMemory  = "serve-memory"
	wlEmbedMontage = "embed-montage"
	wlRecover      = "recover-failover"
)

var workloadNames = []string{wlServeDurable, wlServeMemory, wlEmbedMontage, wlRecover}

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go asserts the
// two stay identical.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd is what a user of the system sees. Every workload reports every
// entry, so each is defined per workload in terms of that workload's
// operation ("op") and the blocking delay its caller pays ("wait"):
//
//	workload          op                              wait
//	serve-*           one advise/report/cleanup cycle  AdviseTransfers round trip
//	embed-montage     one two-workflow simulation      in-process AdviseTransfers call
//	recover-failover  one recover+failover round       Promote() to first ack on the new primary
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"wait_p50_us", "us", "lower", 0.20},
	{"wait_tail_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// tailPct is the percentile behind op_tail_ms and wait_tail_us: the highest
// one that keeps about ten samples beyond it in one run of the workload and
// repeats from run to run. Under the flush model serve-durable's p99 does
// not (spread 0.2); serve-memory's p95 sits on the knee where collector
// cycles start to show and repeats worse than its p99.
var tailPct = map[string]float64{
	wlServeDurable: 95,
	wlServeMemory:  99,
	wlEmbedMontage: 90,
	wlRecover:      75,
}

// perLayer lists the traced-pass metrics, layer = module name. A workload
// that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "policyhttp.client_self_us", unit: "us", better: "lower"},
	{name: "policyhttp.server_before_us", unit: "us", better: "lower"},
	{name: "policyhttp.server_after_us", unit: "us", better: "lower"},
	{name: "policyhttp.requests", unit: "count", better: "higher"},
	{name: "policyhttp.non2xx", unit: "count", better: "lower"},
	{name: "policyhttp.advise_p99_us", unit: "us", better: "lower"},
	{name: "policyhttp.cycle_p99_us", unit: "us", better: "lower"},
	{name: "policyhttp.standby_sync_ms", unit: "ms", better: "lower"},
	{name: "policyhttp.switchover_ms", unit: "ms", better: "lower"},
	{name: "policyhttp.promote_ms", unit: "ms", better: "lower"},
	{name: "policyhttp.full_sync_ms", unit: "ms", better: "lower"},
	{name: "policyhttp.archive_bytes_per_sync", unit: "bytes", better: "lower"},
	{name: "admit.batches", unit: "count", better: "lower"},
	{name: "admit.batch_size_mean", unit: "count", better: "higher"},
	{name: "admit.shed", unit: "count", better: "lower"},
	{name: "admit.probe_submit_us", unit: "us", better: "lower"},
	{name: "policy.execute_self_us", unit: "us", better: "lower"},
	{name: "policy.advise_transfers_us", unit: "us", better: "lower"},
	{name: "policy.report_transfers_us", unit: "us", better: "lower"},
	{name: "policy.advise_cleanups_us", unit: "us", better: "lower"},
	{name: "policy.report_cleanups_us", unit: "us", better: "lower"},
	{name: "policy.calls_per_run", unit: "count", better: "lower"},
	{name: "policy.facts_resident", unit: "count", better: "lower"},
	{name: "policy.suppressed_frac", unit: "ratio", better: "higher"},
	{name: "rules.firings_per_cycle", unit: "count", better: "lower"},
	{name: "rules.firings_per_run", unit: "count", better: "lower"},
	{name: "rules.probe_fireall_us", unit: "us", better: "lower"},
	{name: "durable.append_us", unit: "us", better: "lower"},
	{name: "durable.sync_us", unit: "us", better: "lower"},
	{name: "durable.appends_per_cycle", unit: "count", better: "lower"},
	{name: "durable.syncs_per_cycle", unit: "count", better: "lower"},
	{name: "durable.recovery_ms", unit: "ms", better: "lower"},
	{name: "durable.replay_us_per_record", unit: "us", better: "lower"},
	{name: "durable.wal_bytes_per_record", unit: "bytes", better: "lower"},
	{name: "durable.snapshot_ms", unit: "ms", better: "lower"},
	{name: "durable.snapshot_bytes", unit: "bytes", better: "lower"},
	{name: "durable.snapshot_restore_ms", unit: "ms", better: "lower"},
	{name: "workflow.plan_ms", unit: "ms", better: "lower"},
	{name: "simnet.run_self_ms", unit: "ms", better: "lower"},
	{name: "simnet.makespan_sim_s", unit: "s", better: "lower"},
	{name: "transfer.transfers_executed", unit: "count", better: "lower"},
	{name: "transfer.transfers_suppressed", unit: "count", better: "higher"},
	{name: "executor.tasks_per_run", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.kb_per_op", unit: "KiB", better: "lower"},
	{name: "host.calib_us", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.closure_frac", unit: "ratio", better: "higher"},
}

// metricSet collects one run's metrics by name.
type metricSet struct {
	vals map[string]float64
	errs []string
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]float64)} }

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.vals[name]; dup {
		m.errs = append(m.errs, "metric emitted twice: "+name)
	}
	m.vals[name] = v
}

// finish checks the set against defs: nothing undeclared, nothing missing,
// every value finite. With zeroFill, declared metrics the workload did not
// produce (layers it bypasses) are reported as 0.
func (m *metricSet) finish(defs []metricDef, zeroFill bool) error {
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
		v, ok := m.vals[d.name]
		switch {
		case !ok && zeroFill:
			m.vals[d.name] = 0
		case !ok:
			m.errs = append(m.errs, "metric not emitted: "+d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			m.errs = append(m.errs, fmt.Sprintf("metric %s is not finite: %v", d.name, v))
		}
	}
	for name := range m.vals {
		if !declared[name] {
			m.errs = append(m.errs, "undeclared metric emitted: "+name)
		}
	}
	if len(m.errs) > 0 {
		sort.Strings(m.errs)
		return fmt.Errorf("%d metric error(s), first: %s", len(m.errs), m.errs[0])
	}
	return nil
}

// samples is a set of timings in one unit.
type samples []float64

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// pct returns the p-th percentile (nearest rank) of s; 0 when empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 { return samples(v).pct(50) }

// statWindow is the width of the windows a phase's latency samples are cut
// into. The shared host disturbs a run in bursts, so percentiles of plentiful
// samples are computed per window and reported as the median over the
// windows, which a burst shorter than half the run does not move.
const statWindow = 500 * time.Millisecond

// windows groups samples by completion time into the whole statWindows of
// [start, start+d). A phase shorter than one window is one group.
type windows []samples

func cutWindows(vals samples, done []time.Time, start time.Time, d time.Duration) windows {
	n := int(d / statWindow)
	if n < 1 {
		return windows{vals}
	}
	w := make(windows, n)
	for i, t := range done {
		if k := int(t.Sub(start) / statWindow); k >= 0 && k < n {
			w[k] = append(w[k], vals[i])
		}
	}
	return w
}

// median returns the median over the windows of stat(window).
func (w windows) median(stat func(samples) float64) float64 {
	per := make([]float64, len(w))
	for i, s := range w {
		per[i] = stat(s)
	}
	return median(per)
}
