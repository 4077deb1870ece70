package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sweep.golden from the registry")

// goldenRuns are the cmd/sweep invocations testdata/sweep.golden pins: the
// paper grid at one trial, and a small grid at two trials so that the
// per-trial seed strides show.
var goldenRuns = []struct {
	args string
	o    Options
}{
	{"-trials 1", Options{Trials: 1, Seed: 1}},
	{"-trials 2 -grid 3", Options{Trials: 2, GridSize: 3, Seed: 1}},
}

// TestSweepGolden regenerates the paper's tables through the registry and
// compares them byte for byte with the recorded output of
// `sweep -exp <name>` for every deterministic experiment (scalability
// prints wall-clock times and is left out). A change to this file changes
// the paper's numbers: say so, and re-baseline EXPERIMENTS.md.
func TestSweepGolden(t *testing.T) {
	all, err := Lookup("all")
	if err != nil {
		t.Fatal(err)
	}
	var exps []Experiment
	var names []string
	for _, e := range all {
		if e.Name != "scalability" {
			exps = append(exps, e)
			names = append(names, e.Name)
		}
	}
	out := make([][]bytes.Buffer, len(goldenRuns))
	t.Run("run", func(t *testing.T) {
		for i, g := range goldenRuns {
			out[i] = make([]bytes.Buffer, len(exps))
			for j, e := range exps {
				buf := &out[i][j]
				t.Run(strings.ReplaceAll(g.args, " ", "")+"/"+e.Name, func(t *testing.T) {
					t.Parallel()
					tables, err := e.Run(g.o)
					if err != nil {
						t.Fatal(err)
					}
					Write(buf, tables)
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	var got bytes.Buffer
	for i, g := range goldenRuns {
		fmt.Fprintf(&got, "# sweep %s -exp {%s}\n", g.args, strings.Join(names, " "))
		for j := range exps {
			got.Write(out[i][j].Bytes())
		}
	}

	path := filepath.Join("testdata", "sweep.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs (regenerate with go test ./internal/experiment -run SweepGolden -update)\n got: %q\nwant: %q",
				path, i+1, g, w)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("fgi7")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range []string{`"fgi7"`, "table4", "fig7", "ablations", "all"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %s", err, name)
		}
	}
	if exps, err := Lookup("fig7"); err != nil || len(exps) != 1 || exps[0].Name != "fig7" {
		t.Fatalf("Lookup(fig7) = %v, %v", exps, err)
	}
	if exps, err := Lookup("all"); err != nil || len(exps) != len(registry) {
		t.Fatalf("Lookup(all) = %d experiments, %v", len(exps), err)
	}
}
