// Command montagerun executes one augmented-Montage experiment on the
// simulated testbed and prints its metrics — a single cell of the paper's
// Figs. 5-9.
//
// Usage:
//
//	montagerun -extra-mb 100 -threshold 50 -streams 8 -trials 5
//	montagerun -extra-mb 100 -no-policy -streams 4
package main

import (
	"flag"
	"fmt"
	"os"

	"policyflow/internal/dag"
	"policyflow/internal/experiment"
	"policyflow/internal/policy"
	"policyflow/internal/stats"
)

func main() {
	var (
		extraMB   = flag.Float64("extra-mb", 100, "additional staged file size per staging job (MB)")
		noPolicy  = flag.Bool("no-policy", false, "run default Pegasus without the policy service")
		algorithm = flag.String("algorithm", "greedy", "allocation algorithm: greedy, balanced")
		threshold = flag.Int("threshold", 50, "max streams between a host pair")
		streams   = flag.Int("streams", 4, "default streams per transfer")
		cluster   = flag.Int("cluster-factor", 0, "transfer clustering factor (0 = none, the paper's setup)")
		priority  = flag.String("priority", "", "structure priority: bfs, dfs, direct-dependent, dependent")
		grid      = flag.Int("grid", 0, "Montage grid size (0 = paper's 9x9, 89 staging jobs)")
		trials    = flag.Int("trials", 1, "number of trials (paper: >= 5)")
		seed      = flag.Int64("seed", 1, "base random seed")
		timeline  = flag.String("timeline", "", "write the per-task timeline CSV to this path (single-trial runs)")
	)
	flag.Parse()

	s := experiment.Scenario{
		ExtraMB:        *extraMB,
		UsePolicy:      !*noPolicy,
		Algorithm:      policy.Algorithm(*algorithm),
		Threshold:      *threshold,
		DefaultStreams: *streams,
		ClusterFactor:  *cluster,
		GridSize:       *grid,
		Seed:           *seed,
	}
	if *priority != "" {
		s.PriorityAlgorithm = dag.PriorityAlgorithm(*priority)
	}

	if *trials == 1 {
		m, err := experiment.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "montagerun: %v\n", err)
			os.Exit(1)
		}
		if *timeline != "" && m.Exec != nil {
			f, err := os.Create(*timeline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "montagerun: %v\n", err)
				os.Exit(1)
			}
			if err := m.Exec.WriteTimeline(f); err != nil {
				fmt.Fprintf(os.Stderr, "montagerun: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("timeline written to %s\n", *timeline)
		}
		fmt.Printf("makespan            %.1f s\n", m.MakespanSeconds)
		fmt.Printf("max WAN streams     %d\n", m.MaxWANStreams)
		fmt.Printf("WAN data moved      %.1f MB\n", m.WANMBMoved)
		fmt.Printf("transfers executed  %d (suppressed %d, failed %d)\n",
			m.TransfersExecuted, m.TransfersSuppressed, m.TransferFailures)
		fmt.Printf("task retries        %d\n", m.Retries)
		fmt.Printf("policy calls        %d\n", m.PolicyCalls)
		fmt.Printf("cleanups executed   %d\n", m.CleanupsExecuted)
		return
	}
	ms, err := experiment.Trials(s, *trials, experiment.FigureStride, experiment.Run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montagerun: %v\n", err)
		os.Exit(1)
	}
	// Aggregate the completed trials only.
	var makespan, failures, retries, suppressed []float64
	peak := 0
	for _, m := range ms {
		if m.Completed {
			makespan = append(makespan, m.MakespanSeconds)
			failures = append(failures, float64(m.TransferFailures))
			retries = append(retries, float64(m.Retries))
			suppressed = append(suppressed, float64(m.TransfersSuppressed))
			peak = max(peak, m.MaxWANStreams)
		}
	}
	fmt.Printf("makespan            %s s\n", stats.Summarize(makespan))
	fmt.Printf("max WAN streams     %d\n", peak)
	fmt.Printf("mean failures       %.1f\n", stats.Mean(failures))
	fmt.Printf("mean retries        %.1f\n", stats.Mean(retries))
	fmt.Printf("mean suppressed     %.1f\n", stats.Mean(suppressed))
}
