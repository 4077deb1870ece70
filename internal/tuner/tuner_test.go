package tuner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rewardFor models the simulated testbed's response: goodput peaks for
// thresholds at or below the overload knee (~65) and declines beyond it.
func rewardFor(threshold int, rng *rand.Rand) float64 {
	base := 3.5
	if threshold > 65 {
		base *= math.Max(0.5, 1-0.0025*float64(threshold-65))
	}
	if threshold < 20 {
		base *= 0.8 // too few streams to saturate
	}
	return base * (1 + 0.03*rng.NormFloat64())
}

func TestUCB1ConvergesToKnee(t *testing.T) {
	u, err := NewUCB1(DefaultArms(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		arm := u.Next()
		u.Record(arm, rewardFor(arm, rng))
	}
	best := u.Best()
	if best < 25 || best > 65 {
		t.Fatalf("converged to %d, want within [25, 65] (below the knee)", best)
	}
	// The best arm must dominate the pull counts after convergence.
	pulls := u.Pulls()
	if pulls[best] < pulls[200] {
		t.Fatalf("best arm %d pulled %d times, 200 pulled %d", best, pulls[best], pulls[200])
	}
}

func TestUCB1ExploresAllArmsFirst(t *testing.T) {
	arms := []int{10, 20, 30}
	u, err := NewUCB1(arms, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for range arms {
		a := u.Next()
		seen[a] = true
		u.Record(a, 1)
	}
	for _, a := range arms {
		if !seen[a] {
			t.Fatalf("arm %d never explored in first round", a)
		}
	}
}

func TestUCB1NearestArmAttribution(t *testing.T) {
	u, err := NewUCB1([]int{10, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	u.Record(12, 5) // nearest arm: 10
	u.Record(90, 1) // nearest arm: 100
	pulls := u.Pulls()
	if pulls[10] != 1 || pulls[100] != 1 {
		t.Fatalf("pulls = %v", pulls)
	}
	if u.Best() != 10 {
		t.Fatalf("Best = %d", u.Best())
	}
}

func TestUCB1Validation(t *testing.T) {
	if _, err := NewUCB1(nil, 1); err == nil {
		t.Error("empty arms accepted")
	}
	if _, err := NewUCB1([]int{0}, 1); err == nil {
		t.Error("zero arm accepted")
	}
	u, err := NewUCB1([]int{50, 50, 25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.arms) != 2 {
		t.Fatalf("duplicates kept: %v", u.arms)
	}
}

func TestHillClimberFindsPeak(t *testing.T) {
	h, err := NewHillClimber(200, 32, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		th := h.Next()
		h.Record(th, rewardFor(th, rng))
	}
	best := h.Best()
	if best > 110 {
		t.Fatalf("hill climber stuck at %d, want to descend below ~110", best)
	}
}

func TestHillClimberBounds(t *testing.T) {
	h, err := NewHillClimber(15, 10, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		th := h.Next()
		if th < 10 || th > 40 {
			t.Fatalf("threshold %d escaped bounds", th)
		}
		h.Record(th, 1) // flat reward: keeps moving, must stay bounded
	}
}

func TestHillClimberValidation(t *testing.T) {
	cases := [][4]int{
		{5, 1, 10, 40},  // start below min
		{50, 1, 10, 40}, // start above max
		{20, 0, 10, 40}, // zero step
		{20, 1, 40, 10}, // max < min
		{20, 1, 0, 40},  // min < 1
	}
	for _, c := range cases {
		if _, err := NewHillClimber(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("accepted %v", c)
		}
	}
}

// Property: UCB1's Best always returns a configured arm, and total pulls
// equal the number of Records.
func TestUCB1Properties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u, err := NewUCB1(DefaultArms(), 1)
		if err != nil {
			return false
		}
		n := 20 + rng.Intn(100)
		for i := 0; i < n; i++ {
			arm := u.Next()
			u.Record(arm, rng.Float64()*5)
		}
		total := 0
		isArm := map[int]bool{}
		for _, a := range DefaultArms() {
			isArm[a] = true
		}
		for a, c := range u.Pulls() {
			if !isArm[a] || c < 0 {
				return false
			}
			total += c
		}
		return total == n && isArm[u.Best()]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
