// Package tuner implements the machine-learning threshold advisor the
// paper proposes as future work (Section VII): "we will explore machine
// learning algorithms to help us learn what data transfer settings (such
// as the threshold number of streams) are the most beneficial for the
// applications. Based on our current results, we assume that these will
// depend on available host resources and on the network performance
// between computing and data storage sites."
//
// Two learners are provided, both optimizing the per-host-pair stream
// threshold from observed transfer performance:
//
//   - UCB1: a multi-armed bandit over a discrete set of candidate
//     thresholds; each episode (e.g. one workflow run) pulls an arm and
//     records the achieved goodput as reward.
//     UCB1's optimism drives exploration without a tuning schedule.
//   - HillClimber: a local-search tuner that nudges the threshold up or
//     down by a step and keeps the direction while the reward improves —
//     cheaper, but can stall on plateaus.
//
// The learners run offline, episode by episode: the experiment harness
// runs a workflow at the threshold Next returns and Records its goodput.
// The policy service has no online timing feed; a live tuner would need
// one added next to CompletionReport.Timings.
package tuner

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Learner is a sequential threshold optimizer.
type Learner interface {
	// Next returns the threshold to use for the next episode.
	Next() int
	// Record reports the reward (e.g. goodput in MB/s) achieved by an
	// episode run at the given threshold.
	Record(threshold int, reward float64)
	// Best returns the current best-known threshold.
	Best() int
}

// UCB1 is an upper-confidence-bound bandit over candidate thresholds.
type UCB1 struct {
	mu    sync.Mutex
	arms  []int
	count map[int]int
	sum   map[int]float64
	total int
	// c scales the exploration bonus; sqrt(2) is the classical choice.
	c float64
}

// DefaultArms is a reasonable candidate set bracketing the paper's
// explored thresholds {50, 100, 200}.
func DefaultArms() []int { return []int{25, 40, 50, 65, 80, 100, 150, 200} }

// NewUCB1 creates a bandit over the given candidate thresholds (must be
// non-empty; duplicates are removed).
func NewUCB1(arms []int, c float64) (*UCB1, error) {
	if len(arms) == 0 {
		return nil, errors.New("tuner: no arms")
	}
	if c <= 0 {
		c = math.Sqrt2
	}
	seen := map[int]bool{}
	var uniq []int
	for _, a := range arms {
		if a < 1 {
			return nil, fmt.Errorf("tuner: invalid arm %d", a)
		}
		if !seen[a] {
			seen[a] = true
			uniq = append(uniq, a)
		}
	}
	sort.Ints(uniq)
	return &UCB1{
		arms:  uniq,
		count: make(map[int]int, len(uniq)),
		sum:   make(map[int]float64, len(uniq)),
		c:     c,
	}, nil
}

// Next implements Learner: unexplored arms first (in ascending threshold
// order), then the arm with the highest UCB index.
func (u *UCB1) Next() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, a := range u.arms {
		if u.count[a] == 0 {
			return a
		}
	}
	best, bestIdx := u.arms[0], math.Inf(-1)
	for _, a := range u.arms {
		mean := u.sum[a] / float64(u.count[a])
		idx := mean + u.c*math.Sqrt(math.Log(float64(u.total))/float64(u.count[a]))
		if idx > bestIdx {
			best, bestIdx = a, idx
		}
	}
	return best
}

// Record implements Learner. Rewards for thresholds outside the arm set
// are attributed to the nearest arm.
func (u *UCB1) Record(threshold int, reward float64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	a := u.nearestLocked(threshold)
	u.count[a]++
	u.sum[a] += reward
	u.total++
}

// Best implements Learner: the arm with the highest empirical mean
// (unexplored arms lose ties to explored ones).
func (u *UCB1) Best() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	best, bestMean := u.arms[0], math.Inf(-1)
	for _, a := range u.arms {
		if u.count[a] == 0 {
			continue
		}
		mean := u.sum[a] / float64(u.count[a])
		if mean > bestMean {
			best, bestMean = a, mean
		}
	}
	return best
}

func (u *UCB1) nearestLocked(threshold int) int {
	best, bestDist := u.arms[0], math.MaxInt
	for _, a := range u.arms {
		d := a - threshold
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = a, d
		}
	}
	return best
}

// HillClimber adjusts the threshold by +/- Step, keeping the direction
// while the reward improves and reversing (with step decay) when it
// degrades.
type HillClimber struct {
	mu         sync.Mutex
	current    int
	step       int
	min, max   int
	dir        int // +1 or -1
	lastReward float64
	seen       bool
	bestThresh int
	bestReward float64
}

// NewHillClimber starts at `start`, moving by `step` within [min, max].
func NewHillClimber(start, step, min, max int) (*HillClimber, error) {
	if min < 1 || max < min || start < min || start > max || step < 1 {
		return nil, fmt.Errorf("tuner: invalid hill-climber bounds start=%d step=%d [%d,%d]", start, step, min, max)
	}
	return &HillClimber{current: start, step: step, min: min, max: max, dir: 1,
		bestThresh: start, bestReward: math.Inf(-1)}, nil
}

// Next implements Learner.
func (h *HillClimber) Next() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.current
}

// Record implements Learner. The threshold argument is ignored (the
// climber evaluates its own current position).
func (h *HillClimber) Record(_ int, reward float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if reward > h.bestReward {
		h.bestReward = reward
		h.bestThresh = h.current
	}
	if !h.seen {
		h.seen = true
		h.lastReward = reward
		h.current = h.clamp(h.current + h.dir*h.step)
		return
	}
	if reward < h.lastReward {
		// Got worse: reverse and shrink the step (floor 1).
		h.dir = -h.dir
		if h.step > 1 {
			h.step = (h.step + 1) / 2
		}
	}
	h.lastReward = reward
	h.current = h.clamp(h.current + h.dir*h.step)
}

// Best implements Learner.
func (h *HillClimber) Best() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bestThresh
}

func (h *HillClimber) clamp(v int) int {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}
