package experiment

import (
	"strconv"
	"strings"
	"testing"

	"policyflow/internal/policy"
	"policyflow/internal/stats"
)

// paperScenario returns a full-scale (9x9 grid, 89 staging jobs) scenario.
func paperScenario(extraMB float64, usePolicy bool, threshold, defStreams int, seed int64) Scenario {
	return Scenario{
		ExtraMB:        extraMB,
		UsePolicy:      usePolicy,
		Algorithm:      policy.AlgoGreedy,
		Threshold:      threshold,
		DefaultStreams: defStreams,
		Seed:           seed,
	}
}

// trials runs s for n trials with the figures' seed stride and summarizes
// the completed makespans.
func trials(t *testing.T, s Scenario, n int) stats.Summary {
	t.Helper()
	ms, err := Trials(s, n, FigureStride, Run)
	if err != nil {
		t.Fatal(err)
	}
	sum, _, _ := makespan(ms)
	return sum
}

// cell returns the cell of the table row whose leading cells equal key,
// column col.
func cell(t *testing.T, tab Table, col int, key ...string) string {
	t.Helper()
rows:
	for _, row := range tab.Rows {
		for i, k := range key {
			if row[i] != k {
				continue rows
			}
		}
		return row[col]
	}
	t.Fatalf("%s: no row %v", tab.Title, key)
	return ""
}

func TestRunMontageBasics(t *testing.T) {
	m, err := Run(paperScenario(100, true, 50, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.MakespanSeconds <= 0 {
		t.Fatal("zero makespan")
	}
	// 89 extra files x 100 MB cross the WAN.
	if m.WANMBMoved < 8900-1 {
		t.Fatalf("WAN MB = %v, want >= 8900", m.WANMBMoved)
	}
	// 89 stage-in jobs x 2 transfers + stage-outs succeeded.
	if m.TransfersExecuted < 178 {
		t.Fatalf("transfers executed = %d", m.TransfersExecuted)
	}
	if m.PolicyCalls == 0 {
		t.Fatal("policy service never consulted")
	}
	if m.CleanupsExecuted == 0 {
		t.Fatal("no cleanups")
	}
}

// TestMaxStreamsMatchTableIV: the simulation's observed peak WAN stream
// counts must equal the analytic Table IV values, because 20 staging jobs
// are in flight at peak.
func TestMaxStreamsMatchTableIV(t *testing.T) {
	cases := []struct {
		threshold, defStreams int
		usePolicy             bool
		want                  int
	}{
		{50, 8, true, 63},
		{50, 4, true, 57},
		{50, 12, true, 65},
		{100, 8, true, 107},
		{200, 8, true, 160},
		{200, 12, true, 203},
		{0, 4, false, 80}, // no policy: 20 jobs x 4 streams
	}
	for _, c := range cases {
		m, err := Run(paperScenario(100, c.usePolicy, c.threshold, c.defStreams, 3))
		if err != nil {
			t.Fatalf("th=%d d=%d: %v", c.threshold, c.defStreams, err)
		}
		if m.MaxWANStreams != c.want {
			t.Errorf("th=%d d=%d: max WAN streams = %d, want %d",
				c.threshold, c.defStreams, m.MaxWANStreams, c.want)
		}
	}
}

func TestTableIVAnalytic(t *testing.T) {
	tab, err := tableIV(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"50":        {57, 61, 63, 65, 65},
		"100":       {80, 103, 107, 110, 111},
		"200":       {80, 120, 160, 200, 203},
		"no-policy": {80, 120, 160, 200, 240},
	}
	for th, row := range want {
		for i, v := range row {
			if got := cell(t, tab, i+1, th); got != strconv.Itoa(v) {
				t.Errorf("Table IV [%s][%d] = %s, want %d", th, i, got, v)
			}
		}
	}
}

// TestFig7Shape asserts the paper's headline 100 MB results: greedy-50
// beats no-policy by roughly 6.7% at 8 default streams, and threshold 200
// is roughly 28.8% worse than threshold 50.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure run")
	}
	n := 3
	g50 := trials(t, paperScenario(100, true, 50, 8, 11), n)
	g200 := trials(t, paperScenario(100, true, 200, 8, 11), n)
	np := trials(t, paperScenario(100, false, 0, 4, 11), n)
	t.Logf("greedy-50=%v greedy-200=%v no-policy=%v", g50, g200, np)
	// Ordering: 50 < no-policy < 200.
	if !(g50.Mean < np.Mean && np.Mean < g200.Mean) {
		t.Fatalf("ordering violated: 50=%.0f np=%.0f 200=%.0f",
			g50.Mean, np.Mean, g200.Mean)
	}
	// Paper: no-policy 6.7% slower than greedy-50 (we accept 3-15%).
	rel := np.Mean/g50.Mean - 1
	if rel < 0.03 || rel > 0.15 {
		t.Errorf("no-policy vs greedy-50 = %.1f%%, want ~6.7%%", rel*100)
	}
	// Paper: greedy-200 28.8% slower than greedy-50 (we accept 18-45%).
	rel = g200.Mean/g50.Mean - 1
	if rel < 0.18 || rel > 0.45 {
		t.Errorf("greedy-200 vs greedy-50 = %.1f%%, want ~28.8%%", rel*100)
	}
}

// TestFig6Shape: at 10 MB additional files the policies barely differ
// (the paper: "not much difference", at most ~6%).
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure run")
	}
	n := 2
	g50 := trials(t, paperScenario(10, true, 50, 8, 21), n)
	g200 := trials(t, paperScenario(10, true, 200, 8, 21), n)
	spread := g200.Mean/g50.Mean - 1
	if spread < 0 {
		spread = -spread
	}
	// The spread at 10 MB must be far below the ~29% separation seen at
	// 100 MB (Fig. 7): small files are overhead- and compute-dominated.
	if spread > 0.15 {
		t.Errorf("10MB threshold spread = %.1f%%, want small (<15%%)", spread*100)
	}
}

// TestFig8Shape: at 500 MB, greedy-50 clearly beats no-policy (paper: 14%
// at 8 streams; we accept 6-25%) and threshold 100 stays close to 50.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure run")
	}
	n := 2
	g50 := trials(t, paperScenario(500, true, 50, 8, 31), n)
	g100 := trials(t, paperScenario(500, true, 100, 8, 31), n)
	np := trials(t, paperScenario(500, false, 0, 4, 31), n)
	t.Logf("500MB: greedy-50=%v greedy-100=%v no-policy=%v", g50, g100, np)
	rel := np.Mean/g50.Mean - 1
	if rel < 0.06 || rel > 0.25 {
		t.Errorf("500MB no-policy vs greedy-50 = %.1f%%, want ~14%%", rel*100)
	}
	// Threshold 100: the paper places it between 50 and no-policy; in
	// our simulator greedy-100's one-stream stragglers under overload
	// make it land next to no-policy instead (documented deviation in
	// EXPERIMENTS.md). Assert it stays well below threshold 200
	// territory (which is ~40%+ worse at 500 MB).
	rel = g100.Mean/g50.Mean - 1
	if rel > 0.25 {
		t.Errorf("500MB greedy-100 vs greedy-50 = %.1f%%, want < 25%%", rel*100)
	}
}

// TestFig9Shape: at 1 GB the paper finds "no clear advantage to using any
// of the greedy threshold values over the default Pegasus performance".
// Our simulator keeps a modest ordering advantage for threshold 50
// (documented deviation); this test pins the reproduced relationship:
// threshold 50 is never worse than no-policy, and the two are within ~25%.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure run")
	}
	n := 2
	g50 := trials(t, paperScenario(1000, true, 50, 8, 51), n)
	np := trials(t, paperScenario(1000, false, 0, 4, 51), n)
	t.Logf("1GB: greedy-50=%v no-policy=%v", g50, np)
	if g50.Mean > np.Mean*1.02 {
		t.Errorf("greedy-50 (%v) worse than no-policy (%v) at 1GB",
			g50.Mean, np.Mean)
	}
	if rel := np.Mean/g50.Mean - 1; rel > 0.25 {
		t.Errorf("1GB separation = %.1f%%, implausibly large", rel*100)
	}
}

// TestFig5Shape: with the threshold fixed at 50, file size dominates and
// the default stream count has little effect (the paper's Fig. 5).
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure run")
	}
	// Size effect: 500 MB takes much longer than 10 MB.
	m10, err := Run(paperScenario(10, true, 50, 8, 41))
	if err != nil {
		t.Fatal(err)
	}
	m500, err := Run(paperScenario(500, true, 50, 8, 41))
	if err != nil {
		t.Fatal(err)
	}
	if m500.MakespanSeconds < 3*m10.MakespanSeconds {
		t.Errorf("size effect too weak: 10MB=%.0f 500MB=%.0f",
			m10.MakespanSeconds, m500.MakespanSeconds)
	}
	// Stream-count effect at threshold 50: small (same saturated pipe).
	d4, err := Run(paperScenario(100, true, 50, 4, 41))
	if err != nil {
		t.Fatal(err)
	}
	d12, err := Run(paperScenario(100, true, 50, 12, 41))
	if err != nil {
		t.Fatal(err)
	}
	rel := d12.MakespanSeconds/d4.MakespanSeconds - 1
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.08 {
		t.Errorf("default-streams effect at threshold 50 = %.1f%%, want small", rel*100)
	}
}

func TestMultiWorkflowSharing(t *testing.T) {
	// Scaled-down grid for speed; the sharing logic is size-independent.
	s := Scenario{ExtraMB: 10, GridSize: 4, Threshold: 50, DefaultStreams: 4, Seed: 5}
	noPolicy, err := together(s, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.UsePolicy = true
	withPolicy, err := together(s, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if withPolicy.TransfersSuppressed == 0 {
		t.Fatal("no duplicate suppression across workflows")
	}
	if noPolicy.TransfersSuppressed != 0 {
		t.Fatal("suppression without policy?")
	}
	// Sharing halves the staged bytes, so the policy run is faster.
	if withPolicy.MakespanSeconds >= noPolicy.MakespanSeconds {
		t.Errorf("sharing did not help: with=%v without=%v",
			withPolicy.MakespanSeconds, noPolicy.MakespanSeconds)
	}
	if withPolicy.CleanupsSuppressed == 0 {
		t.Error("no cleanup suppression despite shared files")
	}
}

func TestFig2ClusteringReducesSessions(t *testing.T) {
	s := paperScenario(10, true, 50, 4, 7)
	s.GridSize = 4
	un, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.ClusterFactor = 4
	cl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Sessions >= un.Sessions {
		t.Errorf("clustering did not reduce sessions: %d vs %d", cl.Sessions, un.Sessions)
	}
}

func TestBalancedVsGreedyRuns(t *testing.T) {
	s := paperScenario(10, true, 50, 8, 9)
	s.GridSize, s.ClusterFactor = 4, 4
	g := trials(t, s, 1)
	s.Algorithm = policy.AlgoBalanced
	b := trials(t, s, 1)
	if g.Mean <= 0 || b.Mean <= 0 {
		t.Fatalf("degenerate result: greedy %v, balanced %v", g, b)
	}
}

func TestPriorityAblationRuns(t *testing.T) {
	tab, err := priorities(Options{Trials: 1, GridSize: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Runs) != 5 {
		t.Fatalf("rows = %d, runs = %d, want 5", len(tab.Rows), len(tab.Runs))
	}
	for i, name := range []string{"none", "bfs", "dfs", "direct-dependent", "dependent"} {
		if got := strings.TrimSpace(tab.Rows[i][0]); got != name {
			t.Errorf("row %d = %q, want algorithm %s", i, got, name)
		}
	}
}

func TestPolicyOverheadSweep(t *testing.T) {
	s := paperScenario(100, true, 50, 8, 17)
	s.GridSize = 4
	s.PolicyCallSeconds = -1 // zero latency
	free := trials(t, s, 1)
	s.PolicyCallSeconds = 2
	slow := trials(t, s, 1)
	// Higher call latency can only slow the workflow down.
	if slow.Mean < free.Mean {
		t.Errorf("latency sped things up: %v vs %v", slow, free)
	}
}

func TestFigDriversSmallGrid(t *testing.T) {
	tab, err := figThreshold("6", 10)(Options{Trials: 1, GridSize: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// 3 thresholds x 5 defaults + 1 no-policy point.
	if len(tab.Rows) != 16 {
		t.Fatalf("points = %d, want 16", len(tab.Rows))
	}
	cell(t, tab, 2, "no-policy", "4")
	cell(t, tab, 2, "greedy-50", "12")
	cell(t, tab, 2, "greedy-200", "8")
	if want := []string{"series", "streams/transfer", "mean(s)", "stddev(s)", "max WAN streams", "DNF"}; strings.Join(tab.Header, "|") != strings.Join(want, "|") {
		t.Fatalf("header = %q", tab.Header)
	}
}

func TestRunTrialsAggregates(t *testing.T) {
	s := paperScenario(10, true, 50, 4, 23)
	s.GridSize = 3
	sum := trials(t, s, 3)
	if sum.N != 3 {
		t.Fatalf("N = %d", sum.N)
	}
	if sum.Mean <= 0 {
		t.Fatal("zero mean")
	}
	// Distinct seeds: jitter should produce nonzero variance.
	if sum.StdDev == 0 {
		t.Error("zero stddev across seeded trials")
	}
}
