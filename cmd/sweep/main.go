// Command sweep regenerates the paper's tables and figures on the
// simulated testbed. Each experiment prints the same rows or series the
// paper reports (Table IV; Figs. 2, 5, 6, 7, 8, 9), plus the ablations
// documented in DESIGN.md.
//
// Usage:
//
//	sweep -exp all -trials 5
//	sweep -exp fig7 -trials 5
//	sweep -exp table4
//	sweep -exp ablations -trials 3
//
// Full-scale figures (the default) run the 89-staging-job workflow; use
// -grid to scale the workflow down for a quick pass.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"policyflow/internal/experiment"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: table4, fig2, fig5, fig6, fig7, fig8, fig9, tuner, scalability, ablations, all")
		trials = flag.Int("trials", 5, "trials per data point (paper: >= 5)")
		grid   = flag.Int("grid", 0, "Montage grid size (0 = paper's 9x9)")
		seed   = flag.Int64("seed", 1, "base random seed")
		csvDir = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()
	exps, err := experiment.Lookup(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(2)
	}
	o := experiment.Options{Trials: *trials, GridSize: *grid, Seed: *seed}
	for _, e := range exps {
		tables, err := e.Run(o)
		if err == nil {
			experiment.Write(os.Stdout, tables)
			err = writeCSV(*csvDir, e.Name, tables)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}

// writeCSV writes each table to dir as <name>.csv, or <name>-<i>.csv when
// the experiment has several; an empty dir writes nothing.
func writeCSV(dir, name string, tables []experiment.Table) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		file := name
		if len(tables) > 1 {
			file = fmt.Sprintf("%s-%d", name, i+1)
		}
		f, err := os.Create(filepath.Join(dir, file+".csv"))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if t.Header != nil {
			w.Write(t.Header)
		}
		err = w.WriteAll(t.Rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
