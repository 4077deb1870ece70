package montage

import (
	"strings"
	"testing"

	"policyflow/internal/workflow"
)

func TestDefaultHas89StagingJobs(t *testing.T) {
	w, err := Generate(DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "There are 89 data staging jobs in this Montage
	// workflow."
	if got := StagingJobCount(w); got != 89 {
		t.Fatalf("staging jobs = %d, want 89", got)
	}
}

func TestStructureCounts(t *testing.T) {
	w, err := Generate(DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range w.Jobs() {
		counts[j.Transformation]++
	}
	want := map[string]int{
		"mHdr": 1, "mOverlaps": 1,
		"mProjectPP": 81, "mDiffFit": 144,
		"mConcatFit": 1, "mBgModel": 1,
		"mBackground": 81, "mImgtbl": 1,
		"mAdd": 1, "mShrink": 1, "mJPEG": 1,
	}
	for tr, n := range want {
		if counts[tr] != n {
			t.Errorf("%s = %d, want %d", tr, counts[tr], n)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAugmentationAddsOneExtraPerStagingJob(t *testing.T) {
	plain, err := Generate(DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	aug, err := Generate(DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	extra := aug.Stats().ExternalInputs - plain.Stats().ExternalInputs
	if extra != 89 {
		t.Fatalf("extra external inputs = %d, want 89 (one per staging job)", extra)
	}
	// Every extra file is 100 MB and staged from the WAN source.
	n := 0
	for _, f := range aug.Files() {
		if strings.HasPrefix(f.Name, "extra_") {
			n++
			if f.SizeBytes != 100<<20 {
				t.Errorf("%s size = %d", f.Name, f.SizeBytes)
			}
			if !strings.HasPrefix(f.SourceURL, "gsiftp://alamo.futuregrid") {
				t.Errorf("%s source = %s", f.Name, f.SourceURL)
			}
		}
	}
	if n != 89 {
		t.Fatalf("extra files = %d", n)
	}
	// Staging job count is unchanged: the extra file rides along on the
	// existing staging job (Fig. 3), it does not create a new one.
	if got := StagingJobCount(aug); got != 89 {
		t.Fatalf("augmented staging jobs = %d, want 89", got)
	}
}

func TestPlansWithPaperConfig(t *testing.T) {
	w, err := Generate(DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Plan(workflow.PlanConfig{
		WorkflowID:      "run1",
		ComputeSiteBase: "file://obelix.isi.example.org/scratch",
		OutputSiteBase:  "file://obelix.isi.example.org/results",
		Cleanup:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := countTasks(p, workflow.TaskStageIn); got != 89 {
		t.Fatalf("planned stage-in tasks = %d, want 89", got)
	}
	if got := countTasks(p, workflow.TaskCompute); got != 314 {
		t.Fatalf("compute tasks = %d, want 314", got)
	}
	if countTasks(p, workflow.TaskCleanup) == 0 {
		t.Fatal("no cleanup tasks")
	}
	if !p.Graph.IsAcyclic() {
		t.Fatal("cyclic plan")
	}
	// Augmented stage-in tasks carry both the image (LAN) and the extra
	// file (WAN).
	si, ok := p.Task("stage_in_mProjectPP_001")
	if !ok {
		t.Fatal("missing stage_in_mProjectPP_001")
	}
	if len(si.Transfers) != 2 {
		t.Fatalf("transfers = %+v", si.Transfers)
	}
	hosts := map[string]bool{}
	for _, op := range si.Transfers {
		hosts[op.SourceURL[:8]] = true
	}
	if len(hosts) != 2 {
		t.Fatalf("expected two distinct sources, got %+v", si.Transfers)
	}
}

func TestGridSizeScaling(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.GridSize = 4
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range w.Jobs() {
		counts[j.Transformation]++
	}
	if counts["mProjectPP"] != 16 {
		t.Fatalf("mProjectPP = %d", counts["mProjectPP"])
	}
	if counts["mDiffFit"] != 2*4*3 {
		t.Fatalf("mDiffFit = %d", counts["mDiffFit"])
	}
	if got := StagingJobCount(w); got != 16+8 {
		t.Fatalf("staging jobs = %d, want 24", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.ImageSourceBase = ""
	if _, err := Generate(cfg); err == nil {
		t.Error("missing ImageSourceBase accepted")
	}
	cfg = DefaultConfig(10)
	cfg.ExtraSourceBase = ""
	if _, err := Generate(cfg); err == nil {
		t.Error("ExtraMB without source accepted")
	}
	cfg = DefaultConfig(0)
	cfg.GridSize = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("GridSize 1 accepted")
	}
}

func TestRuntimeScale(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.RuntimeScale = 2
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var j *workflow.Job
	for _, job := range w.Jobs() {
		if job.ID == "mBgModel" {
			j = job
		}
	}
	if j == nil {
		t.Fatal("no mBgModel")
	}
	if j.RuntimeSeconds != 200 {
		t.Fatalf("scaled runtime = %v", j.RuntimeSeconds)
	}
}

func TestConfigForDegrees(t *testing.T) {
	half := ConfigForDegrees(0.5, 0)
	if half.GridSize != 5 || half.Name != "montage-0.5deg" {
		t.Fatalf("half = %+v", half)
	}
	one := ConfigForDegrees(1, 100)
	if one.GridSize != 9 || one.ExtraMB != 100 {
		t.Fatalf("one = %+v", one)
	}
	w, err := Generate(one)
	if err != nil {
		t.Fatal(err)
	}
	if StagingJobCount(w) != 89 {
		t.Fatalf("1-degree staging jobs = %d", StagingJobCount(w))
	}
	two := ConfigForDegrees(2, 0)
	if two.GridSize != 13 {
		t.Fatalf("two = %+v", two)
	}
	big := ConfigForDegrees(4, 0)
	if big.GridSize != 18 {
		t.Fatalf("big = %+v", big)
	}
}

// countTasks returns the number of tasks of type tt in p.
func countTasks(p *workflow.Plan, tt workflow.TaskType) int {
	n := 0
	for _, t := range p.Tasks {
		if t.Type == tt {
			n++
		}
	}
	return n
}
