// Command bench is the repository's benchmark: four workloads against the
// real policy-service stack, end-to-end metrics from an untraced pass and
// per-layer metrics from a traced pass. See README.md; BENCHMARK.json at the
// repository root is its contract.
//
//	bash bench/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # all four workloads, both passes
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"policyflow/internal/policyhttp"
)

// benchProcs pins the Go scheduler to one processor. The sandbox reports two
// CPUs, but the second comes and goes with the shared host (two busy threads
// take anywhere from 1x to 2x the time of one), while one thread repeats
// within a few percent. Clients and server still interleave on it, and the
// modelled flush is a sleep, so waiting overlaps as it would on real cores.
const benchProcs = 1

// sizes is the fixed load sizing. The test shrinks it; the command never does.
type sizes struct {
	resident    int // staged files preloaded into Policy Memory (serve, failover pair)
	warmCycles  int // warm-up cycles per serve client, part of set-up
	setups      int // set-ups per untraced run; setup_s is their median
	simWarm     int // warm-up simulations (embed-montage)
	walRecords  int // records in the WAL that recover-failover replays
	roundCycles int // cycles on the primary per failover round
}

var fullSizes = sizes{resident: 10000, warmCycles: 100, setups: 3, simWarm: 3, walRecords: 2000, roundCycles: 10}

// options is what the command line (or the test) asks of one run.
type options struct {
	seed     int64
	seconds  float64 // measured phase
	trace    bool
	sizes    sizes
	outDir   string // span files, results.jsonl
	dataRoot string // WAL and snapshot scratch
}

// runState is one invocation: its inputs, its metrics and its failure count.
type runState struct {
	options
	workload   string
	measureFor time.Duration
	runDir     string // this run's directory under dataRoot, removed at the end
	metrics    *metricSet
	notes      map[string]any

	mu        sync.Mutex
	attempted int64
	failed    int64
	shed      int64
	dirSeq    int
}

// op counts one operation sent to the program under test.
func (rs *runState) op(err error, what string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.attempted++
	if err == nil {
		return
	}
	if policyhttp.IsBusy(err) {
		rs.shed++
	}
	rs.failLocked("%s: %v", what, err)
}

// check counts a failed output check; any makes the run incorrect.
func (rs *runState) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.failLocked(format, args...)
}

func (rs *runState) failLocked(format string, args ...any) {
	rs.failed++
	if rs.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", rs.workload, fmt.Sprintf(format, args...))
	}
}

func (rs *runState) note(key string, v any) { rs.notes[key] = v }

// dataDir returns a fresh directory path under the run's data root.
func (rs *runState) dataDir(kind string) string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.dirSeq++
	return filepath.Join(rs.runDir, fmt.Sprintf("%s-%d", kind, rs.dirSeq))
}

func (rs *runState) tracePath() string {
	return filepath.Join(rs.outDir, "trace-"+rs.workload+".jsonl")
}

// memDelta is what the Go runtime did over a measured phase.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(start runtime.MemStats) memDelta {
	end := readMem()
	return memDelta{
		mallocs:   end.Mallocs - start.Mallocs,
		bytes:     end.TotalAlloc - start.TotalAlloc,
		gcCycles:  end.NumGC - start.NumGC,
		gcPauseNs: end.PauseTotalNs - start.PauseTotalNs,
	}
}

func (d memDelta) report(m *metricSet, ops float64) {
	m.set("runtime.gc_cycles", float64(d.gcCycles))
	m.set("runtime.gc_pause_ms", float64(d.gcPauseNs)/1e6)
	m.set("runtime.kb_per_op", float64(d.bytes)/1024/ops)
}

// heapLiveMB is the live heap after a collection.
func heapLiveMB() float64 {
	runtime.GC()
	return float64(readMem().HeapAlloc) / (1 << 20)
}

// calib times a fixed single-thread hash loop (about 100 ms on the
// reference sandbox). It runs before and after every workload so a reader
// can tell host drift from a code change.
func calib() float64 {
	buf := make([]byte, 4096)
	start := time.Now()
	h := fnv.New64a()
	for i := 0; i < 12000; i++ {
		buf[i%len(buf)]++
		h.Write(buf)
	}
	if h.Sum64() == 0 {
		fmt.Fprintln(os.Stderr, "bench: calib hash is zero")
	}
	return float64(time.Since(start)) / 1e3
}

// record is one line of the results file and the unit -compare works on.
type record struct {
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Correct  bool               `json:"correct"`
	Attempt  int64              `json:"attempted"`
	Failed   int64              `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
	Env      map[string]any     `json:"env"`
	Notes    map[string]any     `json:"notes"`
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

var errIncorrect = errors.New("output checks failed")

// runWorkload runs one workload once and returns its record. The record is
// valid (and printed by main) even when err is errIncorrect.
func runWorkload(workload string, o options) (*record, error) {
	rs := &runState{options: o, workload: workload,
		measureFor: time.Duration(o.seconds * float64(time.Second)),
		runDir:     filepath.Join(o.dataRoot, fmt.Sprintf("run-%d", os.Getpid())),
		metrics:    newMetricSet(), notes: make(map[string]any)}
	defer os.RemoveAll(rs.runDir)

	calibBefore := calib()
	var err error
	switch workload {
	case wlServeDurable:
		err = runServe(rs, true)
	case wlServeMemory:
		err = runServe(rs, false)
	case wlEmbedMontage:
		err = runMontage(rs)
	case wlRecover:
		err = runRecover(rs)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	calibAfter := calib()

	defs := endToEnd
	if rs.trace {
		defs = perLayer
		rs.metrics.set("host.calib_us", (calibBefore+calibAfter)/2)
		rs.metrics.set("admit.probe_submit_us", probeAdmit())
		rs.metrics.set("rules.probe_fireall_us", probeRules())
	}
	if err := rs.metrics.finish(defs, rs.trace); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if rs.attempted < 1 {
		return nil, fmt.Errorf("%s: nothing was attempted", workload)
	}
	rec := &record{Workload: workload, Seed: o.seed, Seconds: o.seconds,
		Correct: rs.failed == 0, Attempt: rs.attempted, Failed: rs.failed,
		Metrics: rs.metrics.vals, Notes: rs.notes,
		Env: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"git_sha": gitSHA(), "wal_dir": o.dataRoot, "wal_fsync": walFsync,
			"modelled_flush_us": float64(modelledFlush) / 1e3,
			"calib_before_us":   calibBefore, "calib_after_us": calibAfter,
			"sizes": fmt.Sprintf("%+v", o.sizes),
		}}
	if rs.trace {
		rec.Trace = 1
	}
	if !rec.Correct {
		return rec, errIncorrect
	}
	return rec, nil
}

// print writes every metric by name with its unit, then the one-line JSON
// object the benchmark contract asks for.
func (r *record) print() {
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempt, r.Failed, make(map[string]value, len(defs))}
	fmt.Printf("# %s trace=%d seed=%d seconds=%g attempted=%d failed=%d notes=%v\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.Attempt, r.Failed, r.Notes)
	for _, d := range defs {
		fmt.Printf("%-36s %16.4f %s\n", d.name, r.Metrics[d.name], d.unit)
		out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // floats were checked finite
	}
	fmt.Println(string(line))
}

func appendRecord(path string, r *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, both passes)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 12, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	outDir := flag.String("out-dir", "bench/out", "directory for span files and results.jsonl")
	dataRoot := flag.String("data-dir", ".bench_build/data", "directory for WAL and snapshot files")
	results := flag.String("results", "", "results file to append to (default <out-dir>/results.jsonl)")
	compare := flag.Bool("compare", false, "compare two results files given as arguments; exit 1 outside a bound")
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *results == "" {
		*results = filepath.Join(*outDir, "results.jsonl")
	}
	o := options{seed: *seed, seconds: *seconds, sizes: fullSizes, outDir: *outDir, dataRoot: *dataRoot}
	type job struct {
		workload string
		trace    bool
	}
	var jobs []job
	if *workload != "" {
		jobs = []job{{*workload, *trace == 1}}
	} else {
		for _, w := range workloadNames {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	}
	failed := false
	for _, j := range jobs {
		o.trace = j.trace
		rec, err := runWorkload(j.workload, o)
		if rec != nil {
			rec.print()
			if werr := appendRecord(*results, rec); werr != nil {
				fmt.Fprintln(os.Stderr, "bench:", werr)
				failed = true
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// noteFlush records the flush delay a node actually observed, so the
// sandbox's sleep granularity is on record next to the modelled value.
func (rs *runState) noteFlush(n *node) {
	if n.log != nil && n.log.flushes.Load() > 0 {
		rs.note("flush_observed_us", float64(n.log.flushNanos.Load())/float64(n.log.flushes.Load())/1e3)
	}
}
