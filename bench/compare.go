package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readMedians loads a results file (one record per line) and returns, per
// workload, the median of every end-to-end metric over its untraced runs.
func readMedians(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 || !r.Correct {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]float64)
	for w, byName := range values {
		out[w] = make(map[string]float64)
		for name, vs := range byName {
			out[w][name] = median(vs)
		}
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, and the bound; it reports whether every
// pairing stayed within its bound. Run the two sides interleaved (A B A B
// A B): the shared host drifts over minutes, back-to-back runs agree.
func compareFiles(w io.Writer, a, b string) (bool, error) {
	ma, err := readMedians(a)
	if err != nil {
		return false, err
	}
	mb, err := readMedians(b)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, wl := range workloadNames {
		if ma[wl] == nil || mb[wl] == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ma[wl][d.name], mb[wl][d.name]
			if va == 0 {
				continue
			}
			worse := (vb - va) / va
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", wl, d.name, va, vb, worse*100, d.bound*100, verdict)
		}
	}
	return ok, nil
}
