// Command benchjson runs the repository's core benchmarks and writes a
// machine-readable perf trajectory, BENCH_policyflow.json, at the repo
// root. Committed alongside the code, the file records how advise
// latency, WAL commit cost and lease scanning evolve PR over PR — and
// `benchjson -check` turns it into a CI gate that fails when a series
// regresses beyond tolerance.
//
// Usage:
//
//	benchjson -out BENCH_policyflow.json            # refresh the trajectory
//	benchjson -check BENCH_policyflow.json          # re-run and compare
//	benchjson -check old.json -out new.json         # both
//
// The check compares ns/op, allocs/op and B/op per series and fails (exit 1)
// when any baseline series is missing from the fresh run, slower than
// (1+tolerance)x its committed ns/op, or allocating more than
// (1+allocTolerance)x its committed allocs/op or B/op.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// SchemaVersion identifies the BENCH_policyflow.json layout.
const SchemaVersion = 1

// Series is one benchmark measurement in the trajectory.
type Series struct {
	// Name is the stable series key: the benchmark name without the
	// "Benchmark" prefix or the -GOMAXPROCS suffix, including any
	// sub-benchmark path (e.g. "AdviseFactsResident/facts=1024").
	Name string `json:"name"`
	// Bench is the full Go benchmark name the series came from.
	Bench string `json:"bench"`
	// Package is the import path the benchmark lives in.
	Package string `json:"package"`
	// FactsResident is the resident-fact count for scale series (parsed
	// from a "facts=N" sub-benchmark component), 0 otherwise.
	FactsResident int     `json:"factsResident,omitempty"`
	NsPerOp       float64 `json:"nsPerOp"`
	BytesPerOp    float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp   float64 `json:"allocsPerOp,omitempty"`
}

// Trajectory is the top-level BENCH_policyflow.json document.
type Trajectory struct {
	SchemaVersion int      `json:"schemaVersion"`
	GeneratedAt   string   `json:"generatedAt"`
	GoVersion     string   `json:"goVersion"`
	GitSHA        string   `json:"gitSha"`
	Series        []Series `json:"series"`
}

// group is one `go test -bench` invocation: a package, the benchmarks to
// run in it, and a fixed iteration budget. Iteration counts (not wall
// time) keep runs comparable: macro benchmarks whose per-op cost grows
// with session age get few iterations, microsecond-scale benchmarks get
// enough for the measurement window to dominate timer noise.
type group struct {
	pkg       string
	pattern   string
	benchtime string
}

// groups lists the benchmarks that make up the trajectory: the advise
// hot path at batch size 20, advise cost against a loaded Policy Memory,
// the lease expiry scan, the WAL commit path with and without fsync, and
// the bundle subsystem (activation cost, and the advise round trip under
// an activated bundle).
var groups = []group{
	{pkg: ".", pattern: "^BenchmarkPolicyAdvise$", benchtime: "20x"},
	// A measured advise/report round trip is ~50µs under the incremental
	// matcher, so these need a few thousand iterations for the window to
	// dominate GC and scheduler noise; fixture setup is excluded by
	// ResetTimer.
	{pkg: "./internal/policy", pattern: "^BenchmarkAdviseFactsResident$", benchtime: "2000x"},
	// Anchored so BenchmarkAdviseHotPathReference (the naive engine's
	// "before" curve) stays out of the trajectory — it exists for
	// EXPERIMENTS.md, not as a CI gate.
	{pkg: "./internal/policy", pattern: "^BenchmarkAdviseHotPath$", benchtime: "2000x"},
	// Advise + report against the size of the transfer list: the series
	// that shows whether the policy call stays O(list). The large lists
	// cost milliseconds per call, so they get fewer iterations.
	{pkg: "./internal/policy", pattern: "^BenchmarkAdviseBatch$/^n=(1|4|20)$", benchtime: "2000x"},
	{pkg: "./internal/policy", pattern: "^BenchmarkAdviseBatch$/^n=(100|400)$", benchtime: "30x"},
	{pkg: "./internal/policy", pattern: "^BenchmarkLeaseScan$", benchtime: "2000x"},
	{pkg: "./internal/durable", pattern: "^BenchmarkWALAdviseNoFsync$|^BenchmarkWALAdviseFsync$", benchtime: "1000x"},
	{pkg: "./internal/policy", pattern: "^BenchmarkBundleActivate$", benchtime: "200x"},
	{pkg: "./internal/policy", pattern: "^BenchmarkAdviseUnderBundleSnapshot$", benchtime: "200x"},
	// The admitted round trip: HTTP + admission queue + batch dispatch +
	// group commit, unsaturated. Guards the admission layer's overhead on
	// the happy path; saturation behaviour is load-smoke's job.
	{pkg: "./internal/synth", pattern: "^BenchmarkAdmittedAdvise$", benchtime: "500x"},
	// A clean failover switchover over HTTP: demote the peer, catch-up
	// pull, WAL-logged epoch bump. Guards the promote path's latency —
	// failover time is downtime for every writer.
	{pkg: "./internal/policyhttp", pattern: "^BenchmarkFailoverPromote$", benchtime: "50x"},
	// The receiving half of a full resync at 10 k resident facts: archive
	// decode plus restore, whose per-fact bytes and allocations a
	// full-state move pays.
	{pkg: "./internal/policyhttp", pattern: "^BenchmarkReceiveArchive$", benchtime: "20x"},
}

// seriesRename maps sub-benchmark paths onto stable series keys where
// the raw path would be unwieldy as a trajectory name.
var seriesRename = map[string]string{
	"AdviseHotPath/facts=10000":  "rules_advise_facts_10k",
	"AdviseHotPath/facts=100000": "rules_advise_facts_100k",
	"AdmittedAdvise":             "admitted_advise_roundtrip",
	"FailoverPromote":            "failover_promote_latency",
}

// benchLine matches one benchmark result line from `go test -bench`.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

var factsComponent = regexp.MustCompile(`facts=(\d+)`)

func main() {
	var (
		out       = flag.String("out", "", "write the trajectory JSON to this file")
		check     = flag.String("check", "", "compare the fresh run against this baseline trajectory; exit 1 on regression")
		tolerance = flag.Float64("tolerance", 0.30, "allowed fractional ns/op slowdown before -check fails (allocs/op and B/op are gated at a fixed 10%)")
		benchtime = flag.String("benchtime", "", "override every group's -benchtime (default: per-group budgets)")
		count     = flag.Int("count", 3, "benchmark repetitions; the minimum ns/op per series is kept")
	)
	flag.Parse()
	if *out == "" && *check == "" {
		fmt.Fprintln(os.Stderr, "benchjson: nothing to do; pass -out and/or -check")
		os.Exit(2)
	}

	traj, err := run(*benchtime, *count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("measured %d series (go %s, git %s)\n", len(traj.Series), traj.GoVersion, traj.GitSHA)
	for _, s := range traj.Series {
		fmt.Printf("  %-40s %14.0f ns/op %10.0f allocs/op\n", s.Name, s.NsPerOp, s.AllocsPerOp)
	}

	if *out != "" {
		data, err := json.MarshalIndent(traj, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *check != "" {
		baseline, err := load(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: load baseline: %v\n", err)
			os.Exit(1)
		}
		if failures := compare(baseline, traj, *tolerance); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("no regression beyond %.0f%% ns/op, %.0f%% allocs/op and B/op against %s (%d series)\n",
			*tolerance*100, allocTolerance*100, *check, len(baseline.Series))
	}
}

// run executes every benchmark group and assembles the trajectory.
func run(benchtime string, count int) (*Trajectory, error) {
	traj := &Trajectory{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     strings.TrimPrefix(runtime.Version(), "go"),
		GitSHA:        gitSHA(),
	}
	for _, g := range groups {
		series, err := runGroup(g, benchtime, count)
		if err != nil {
			return nil, err
		}
		traj.Series = append(traj.Series, series...)
	}
	if len(traj.Series) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed")
	}
	return traj, nil
}

// runGroup runs one go test -bench invocation and parses its result
// lines. With count > 1 the minimum ns/op per benchmark is kept (the
// least-noisy estimate of the true cost).
func runGroup(g group, benchtime string, count int) ([]Series, error) {
	if benchtime == "" {
		benchtime = g.benchtime
	}
	args := []string{"test", "-run", "^$", "-bench", g.pattern,
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "-benchmem", g.pkg}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, buf.String())
	}
	pkgPath := modulePath(g.pkg)
	best := map[string]*Series{}
	var order []string
	for _, line := range strings.Split(buf.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		bench := m[1]
		ns, _ := strconv.ParseFloat(m[2], 64)
		name := strings.TrimPrefix(bench, "Benchmark")
		if renamed, ok := seriesRename[name]; ok {
			name = renamed
		}
		s := &Series{
			Name:    name,
			Bench:   bench,
			Package: pkgPath,
			NsPerOp: ns,
		}
		if m[3] != "" {
			s.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" {
			s.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if fm := factsComponent.FindStringSubmatch(bench); fm != nil {
			s.FactsResident, _ = strconv.Atoi(fm[1])
		}
		if prev, ok := best[s.Name]; !ok {
			best[s.Name] = s
			order = append(order, s.Name)
		} else if ns < prev.NsPerOp {
			best[s.Name] = s
		}
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("pattern %q in %s produced no benchmark lines:\n%s", g.pattern, g.pkg, buf.String())
	}
	out := make([]Series, 0, len(order))
	for _, name := range order {
		out = append(out, *best[name])
	}
	return out, nil
}

// modulePath renders the package import path for the series record.
func modulePath(pkg string) string {
	const module = "policyflow"
	p := strings.TrimPrefix(pkg, "./")
	if p == "." || p == "" {
		return module
	}
	return module + "/" + strings.TrimSuffix(p, "/")
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func load(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if t.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s has schema version %d, want %d", path, t.SchemaVersion, SchemaVersion)
	}
	return &t, nil
}

// allocTolerance is the fractional allocs/op and B/op growth -check
// allows. Unlike ns/op, allocation counts and bytes barely vary between
// runs, so the gate is tight and fixed; the +1 absorbs rounding on
// single-digit allocation series.
const allocTolerance = 0.10

// compare returns one message per baseline series that is missing from
// the fresh run, slower than (1+tolerance) times its baseline ns/op, or
// allocating more than (1+allocTolerance) times its baseline allocs/op or
// B/op.
func compare(baseline, fresh *Trajectory, tolerance float64) []string {
	current := map[string]Series{}
	for _, s := range fresh.Series {
		current[s.Name] = s
	}
	var failures []string
	for _, base := range baseline.Series {
		got, ok := current[base.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("series %s missing from fresh run", base.Name))
			continue
		}
		if ratio := got.NsPerOp / base.NsPerOp; base.NsPerOp > 0 && ratio > 1+tolerance {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.0f%% slower, tolerance %.0f%%)",
				base.Name, got.NsPerOp, base.NsPerOp, (ratio-1)*100, tolerance*100))
		}
		if base.AllocsPerOp > 0 && got.AllocsPerOp > base.AllocsPerOp*(1+allocTolerance)+1 {
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (tolerance %.0f%%)",
				base.Name, got.AllocsPerOp, base.AllocsPerOp, allocTolerance*100))
		}
		if base.BytesPerOp > 0 && got.BytesPerOp > base.BytesPerOp*(1+allocTolerance) {
			failures = append(failures, fmt.Sprintf("%s: %.0f B/op vs baseline %.0f (tolerance %.0f%%)",
				base.Name, got.BytesPerOp, base.BytesPerOp, allocTolerance*100))
		}
	}
	return failures
}
