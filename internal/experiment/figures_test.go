package experiment

import (
	"strings"
	"testing"

	"policyflow/internal/policy"
	"policyflow/internal/simnet"
)

func TestWriteTableIVGolden(t *testing.T) {
	tab, err := tableIV(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Write(&sb, []Table{tab})
	got := sb.String()
	// Exact rows from the paper's Table IV.
	for _, row := range []string{
		"50         57  61   63   65   65",
		"100        80  103  107  110  111",
		"200        80  120  160  200  203",
		"no-policy  80  120  160  200  240",
	} {
		if !strings.Contains(got, row) {
			t.Errorf("missing row %q in:\n%s", row, got)
		}
	}
}

func TestFig5PointCount(t *testing.T) {
	tab, err := fig5()(Options{Trials: 1, GridSize: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 5 sizes x 5 stream settings.
	if len(tab.Rows) != 25 || len(tab.Runs) != 25 {
		t.Fatalf("points = %d, runs = %d, want 25", len(tab.Rows), len(tab.Runs))
	}
	series := map[string]int{}
	for _, row := range tab.Rows {
		series[row[0]]++
	}
	for _, s := range []string{"0MB", "10MB", "100MB", "500MB", "1000MB"} {
		if series[s] != 5 {
			t.Errorf("series %s has %d points", s, series[s])
		}
	}
	// The 0MB series moves nothing over the WAN.
	if got := cell(t, tab, 4, "0MB", "8"); got != "0" {
		t.Errorf("0MB max WAN streams = %s", got)
	}
}

func TestPipeConfigFor(t *testing.T) {
	wan := PipeConfigFor(policy.HostPair{
		Src: "alamo.futuregrid.tacc.example.org", Dst: "obelix.isi.example.org",
	})
	if wan.CapacityMBps != simnet.WANConfig().CapacityMBps {
		t.Fatalf("WAN pair got %+v", wan)
	}
	lan := PipeConfigFor(policy.HostPair{
		Src: "apache.obelix.isi.example.org", Dst: "obelix.isi.example.org",
	})
	if lan.CapacityMBps != simnet.LANConfig().CapacityMBps {
		t.Fatalf("LAN pair got %+v", lan)
	}
}

func TestScenarioPolicyCallLatencyOverride(t *testing.T) {
	base := Scenario{
		ExtraMB: 10, UsePolicy: true, Algorithm: policy.AlgoGreedy,
		Threshold: 50, DefaultStreams: 4, GridSize: 3, Seed: 4,
	}
	slow := base
	slow.PolicyCallSeconds = 10
	mBase, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	mSlow, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if mSlow.MakespanSeconds <= mBase.MakespanSeconds {
		t.Fatalf("latency had no cost: %v vs %v", mSlow.MakespanSeconds, mBase.MakespanSeconds)
	}
	fast := base
	fast.PolicyCallSeconds = -1 // zero latency
	mFast, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if mFast.MakespanSeconds > mBase.MakespanSeconds {
		t.Fatalf("zero latency slower than default: %v vs %v", mFast.MakespanSeconds, mBase.MakespanSeconds)
	}
}

func TestMetricsExecAttached(t *testing.T) {
	m, err := Run(Scenario{
		ExtraMB: 10, UsePolicy: true, Threshold: 50, DefaultStreams: 4,
		GridSize: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Exec == nil || len(m.Exec.Records) == 0 {
		t.Fatal("executor result not attached")
	}
	if m.Exec.BusyTimeByType == nil {
		t.Fatal("busy time aggregation missing")
	}
	var sb strings.Builder
	if err := m.Exec.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stage_in_") {
		t.Fatal("timeline missing staging rows")
	}
}
