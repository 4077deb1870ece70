package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestStdDev(t *testing.T) {
	// Sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.1380899) > 1e-6 {
		t.Fatalf("StdDev = %v", got)
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Fatalf("StdDev single = %v", got)
	}
	if got := StdDev(nil); got != 0 {
		t.Fatalf("StdDev(nil) = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %v", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almost(got, 2.5) {
		t.Fatalf("even Median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Fatalf("Median(nil) = %v", got)
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almost(s.Mean, 2) || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("Summary = %+v", s)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Fatalf("Summarize(nil) = %+v", got)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

// Property: mean lies within [min, max]; stddev is non-negative; shifting
// all samples by c shifts the mean by c and leaves stddev unchanged.
func TestStatsProperties(t *testing.T) {
	f := func(xs []float64, c float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip degenerate inputs
			}
		}
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e12 {
			return true
		}
		m, sd := Mean(xs), StdDev(xs)
		if sd < 0 {
			return false
		}
		if m < Min(xs)-1e-6 || m > Max(xs)+1e-6 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + c
		}
		scale := math.Max(1, math.Abs(m)+math.Abs(c))
		if math.Abs(Mean(shifted)-(m+c)) > 1e-6*scale {
			return false
		}
		if math.Abs(StdDev(shifted)-sd) > 1e-6*math.Max(1, sd) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
