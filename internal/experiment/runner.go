package experiment

import (
	"cmp"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"policyflow/internal/stats"
)

// Seed strides between consecutive trials of one scenario: Figs. 5-9 use
// the first; Fig. 2, the ablations and the tuner the second. The tables in
// EXPERIMENTS.md were recorded with these seeds.
const (
	FigureStride   int64 = 1000003
	AblationStride int64 = 7919
)

// Options tunes an experiment run.
type Options struct {
	// Trials per data point (default 5; the paper runs each >= 5 times).
	Trials int
	// GridSize scales the workflow down for fast test runs (0 = paper).
	GridSize int
	// Seed is the base random seed (default 1).
	Seed int64
}

func (o Options) norm() Options {
	if o.Trials < 1 {
		o.Trials = 5
	}
	o.Seed = cmp.Or(o.Seed, 1)
	return o
}

// Trials runs n trials of s (at least one), trial i with seed
// s.Seed + i*stride, and returns their metrics in order. Each trial goes
// through run: Run, or a trial that adapts the scenario first.
func Trials(s Scenario, n int, stride int64, run func(Scenario) (Metrics, error)) ([]Metrics, error) {
	ms := make([]Metrics, max(n, 1))
	for i := range ms {
		t := s
		t.Seed = s.Seed + int64(i)*stride
		var err error
		if ms[i], err = run(t); err != nil {
			return nil, fmt.Errorf("experiment %s trial %d: %w", s.Name, i, err)
		}
	}
	return ms, nil
}

// makespan summarizes the makespans of the completed trials and their peak
// WAN stream count; dnf counts the trials that did not complete.
func makespan(ms []Metrics) (sum stats.Summary, peak, dnf int) {
	var xs []float64
	for _, m := range ms {
		if m.Completed {
			xs = append(xs, m.MakespanSeconds)
			peak = max(peak, m.MaxWANStreams)
		} else {
			dnf++
		}
	}
	return stats.Summarize(xs), peak, dnf
}

// Table is one printed table of an experiment.
type Table struct {
	Title string
	// Header is nil for a headless label list.
	Header []string
	// Rows are aligned in columns; a one-cell row (a note) spans them.
	Rows [][]string
	// Runs holds every run behind the table, for the experiment's totals.
	Runs []Metrics
}

// sweep fills in the declared table t with one row per scenario: each runs
// for o.Trials trials on o's grid, seeded o.Seed + i*stride, and cells
// renders the row from the scenario and its trials.
func sweep(o Options, t Table, stride int64, rows []Scenario, cells func(Scenario, []Metrics) []string) (Table, error) {
	for _, s := range rows {
		s.GridSize, s.Seed = o.GridSize, o.Seed
		ms, err := Trials(s, o.Trials, stride, Run)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, cells(s, ms))
		t.Runs = append(t.Runs, ms...)
	}
	return t, nil
}

// Write prints an experiment's tables, separated by blank lines: each
// table's title, then its header and rows in columns two spaces apart (one
// in a headless label list). A line of the policy calls and rule firings
// of all the runs behind the tables and a blank line close it.
func Write(w io.Writer, tables []Table) {
	var calls, firings int64
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		for _, m := range t.Runs {
			calls, firings = calls+m.PolicyCalls, firings+m.RuleFirings
		}
		fmt.Fprintln(w, t.Title)
		pad := 1
		if t.Header != nil {
			pad = 2
		}
		tw := tabwriter.NewWriter(w, 2, 4, pad, ' ', 0)
		for _, row := range append([][]string{t.Header}, t.Rows...) {
			if row != nil {
				fmt.Fprintln(tw, strings.Join(row, "\t"))
			}
		}
		tw.Flush()
	}
	fmt.Fprintf(w, "policy calls %d, rule firings %d\n\n", calls, firings)
}
