package experiment

import (
	"strconv"
	"testing"
)

func TestServiceScalability(t *testing.T) {
	tab, err := scalability(Options{Trials: 1, GridSize: 3, Seed: 2}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Runs) != 2 {
		t.Fatalf("rows = %d, runs = %d", len(tab.Rows), len(tab.Runs))
	}
	num := func(row, col int) int64 {
		n, err := strconv.ParseInt(tab.Rows[row][col], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if num(0, 0) != 1 || num(1, 0) != 3 {
		t.Fatalf("workflow counts = %v, %v", tab.Rows[0][0], tab.Rows[1][0])
	}
	one, three := tab.Runs[0], tab.Runs[1]
	// Triple the workflows, triple the advice traffic and rule firings
	// (same workload per workflow; dedup doesn't apply across per-run
	// scratch dirs).
	if three.PolicyCalls != 3*one.PolicyCalls || num(1, 4) != three.PolicyCalls {
		t.Errorf("policy calls: %d vs 3x%d", three.PolicyCalls, one.PolicyCalls)
	}
	if three.RuleFirings <= 2*one.RuleFirings || num(1, 5) != three.RuleFirings {
		t.Errorf("rule firings: %d vs %d", three.RuleFirings, one.RuleFirings)
	}
	// Shared resources (cores, slots, WAN): more workflows take longer.
	if three.MakespanSeconds <= one.MakespanSeconds {
		t.Errorf("makespans: %v vs %v", three.MakespanSeconds, one.MakespanSeconds)
	}
	if one.PolicyCalls == 0 || num(0, 3) <= 0 {
		t.Fatalf("no advice timing collected: %q", tab.Rows[0])
	}
	if tab.Header[2] != "advice mean (µs)" {
		t.Fatalf("header = %q", tab.Header)
	}
	if _, err := scalability(Options{}, 0); err == nil {
		t.Fatal("zero workflows accepted")
	}
}
