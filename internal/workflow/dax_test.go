package workflow

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestDAXRoundTrip(t *testing.T) {
	w := smallWF(t)
	var buf bytes.Buffer
	if err := w.WriteDAX(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`<adag name="small">`, `<file name="in1"`, `link="input"`, `link="output"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("DAX missing %q:\n%s", frag, out)
		}
	}
	got, err := ReadDAX(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || len(got.Jobs()) != len(w.Jobs()) {
		t.Fatalf("round trip mismatch: %s %d jobs", got.Name, len(got.Jobs()))
	}
	// Structure preserved: same dependency edges.
	g1, err := w.JobGraph()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := got.JobGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, parent := range g1.Nodes() {
		for _, child := range g1.Children(parent) {
			if !slices.Contains(g2.Children(parent), child) {
				t.Errorf("lost edge %s->%s", parent, child)
			}
		}
	}
	if g1.EdgeCount() != g2.EdgeCount() {
		t.Fatalf("edges %d vs %d", g1.EdgeCount(), g2.EdgeCount())
	}
	// File attributes preserved.
	f, ok := got.File("in1")
	if !ok || f.SizeBytes != 10<<20 || f.SourceURL == "" {
		t.Fatalf("file lost attrs: %+v", f)
	}
	o, _ := got.File("out")
	if !o.Output {
		t.Fatal("output flag lost")
	}
	// Job attributes preserved.
	j, _ := got.Job("A")
	if j.Transformation != "tA" || j.RuntimeSeconds != 10 {
		t.Fatalf("job lost attrs: %+v", j)
	}
}

func TestDAXPlansIdentically(t *testing.T) {
	w := smallWF(t)
	var buf bytes.Buffer
	if err := w.WriteDAX(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDAX(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := w.Plan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := got.Plan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []TaskType{TaskCompute, TaskStageIn, TaskStageOut, TaskCleanup} {
		if p1.Count(tt) != p2.Count(tt) {
			t.Errorf("%v: %d vs %d tasks", tt, p1.Count(tt), p2.Count(tt))
		}
	}
}

func TestReadDAXErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not xml at all",
		"unnamed":      `<adag><job id="j"/></adag>`,
		"unknown link": `<adag name="x"><file name="f"/><job id="j"><uses file="f" link="sideways"/></job></adag>`,
		"unknown file": `<adag name="x"><job id="j"><uses file="ghost" link="input"/></job></adag>`,
		"cycle": `<adag name="x">
			<file name="a"/><file name="b"/>
			<job id="j1"><uses file="b" link="input"/><uses file="a" link="output"/></job>
			<job id="j2"><uses file="a" link="input"/><uses file="b" link="output"/></job>
		</adag>`,
	}
	for name, doc := range cases {
		if _, err := ReadDAX(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
