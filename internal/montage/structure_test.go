package montage

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"policyflow/internal/dag"
	"policyflow/internal/workflow"
)

// TestPipelineDependencies verifies the Montage dataflow shape the mosaic
// pipeline requires: projections feed diffs, diffs feed the fit, the
// background model feeds every mBackground, and mAdd consumes every
// corrected image.
func TestPipelineDependencies(t *testing.T) {
	w, err := Generate(DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.JobGraph()
	if err != nil {
		t.Fatal(err)
	}
	// Every mDiffFit depends on exactly two mProjectPP jobs (plus
	// mOverlaps via overlaps.tbl).
	for _, j := range w.Jobs() {
		if j.Transformation != "mDiffFit" {
			continue
		}
		projParents := 0
		for _, p := range g.Parents(j.ID) {
			if strings.HasPrefix(p, "mProjectPP") {
				projParents++
			}
		}
		if projParents != 2 {
			t.Fatalf("%s has %d projection parents", j.ID, projParents)
		}
	}
	// mBgModel feeds all 81 mBackground jobs.
	bgChildren := 0
	for _, c := range g.Children("mBgModel") {
		if strings.HasPrefix(c, "mBackground") {
			bgChildren++
		}
	}
	if bgChildren != 81 {
		t.Fatalf("mBgModel feeds %d mBackground jobs", bgChildren)
	}
	// mAdd consumes every corrected image.
	addParents := 0
	for _, p := range g.Parents("mAdd") {
		if strings.HasPrefix(p, "mBackground") {
			addParents++
		}
	}
	if addParents != 81 {
		t.Fatalf("mAdd has %d mBackground parents", addParents)
	}
	// The final chain: mAdd -> mShrink -> mJPEG.
	if !slices.Contains(g.Children("mAdd"), "mShrink") || !slices.Contains(g.Children("mShrink"), "mJPEG") {
		t.Fatal("final chain broken")
	}
	// Depth sanity: the pipeline has a meaningful critical path.
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if levels["mJPEG"] < 6 {
		t.Fatalf("mJPEG at level %d, want >= 6", levels["mJPEG"])
	}
}

func TestMontageDAXRoundTrip(t *testing.T) {
	w, err := Generate(DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteDAX(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := workflow.ReadDAX(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if StagingJobCount(got) != 89 {
		t.Fatalf("round-tripped staging jobs = %d", StagingJobCount(got))
	}
	g1, _ := w.JobGraph()
	g2, _ := got.JobGraph()
	if g1.EdgeCount() != g2.EdgeCount() {
		t.Fatalf("edges %d vs %d", g1.EdgeCount(), g2.EdgeCount())
	}
}

// TestPrioritiesOnMontage sanity-checks structure priorities on the real
// workflow: upstream jobs outrank the final mosaic steps.
func TestPrioritiesOnMontage(t *testing.T) {
	w, err := Generate(DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.JobGraph()
	if err != nil {
		t.Fatal(err)
	}
	p, err := dag.AssignPriorities(g, dag.Dependent)
	if err != nil {
		t.Fatal(err)
	}
	// mHdr has almost the whole workflow as descendants; mJPEG has none.
	if p["mHdr"] <= p["mJPEG"] {
		t.Fatalf("mHdr %d <= mJPEG %d", p["mHdr"], p["mJPEG"])
	}
	if p["mBgModel"] <= p["mShrink"] {
		t.Fatalf("mBgModel %d <= mShrink %d", p["mBgModel"], p["mShrink"])
	}
}

func TestImageSizesAndSources(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.ImageMB = 2
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range w.Files() {
		if strings.HasPrefix(f.Name, "image_") {
			n++
			if f.SizeBytes != 2<<20 {
				t.Fatalf("%s size = %d", f.Name, f.SizeBytes)
			}
			// The paper serves images from the cluster-local Apache.
			if !strings.Contains(f.SourceURL, "apache.obelix") {
				t.Fatalf("%s source = %s", f.Name, f.SourceURL)
			}
		}
	}
	if n != 81 {
		t.Fatalf("images = %d", n)
	}
}
