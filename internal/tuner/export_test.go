package tuner

// Pulls returns how many episodes have been attributed to each arm.
func (u *UCB1) Pulls() map[int]int {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[int]int, len(u.arms))
	for _, a := range u.arms {
		out[a] = u.count[a]
	}
	return out
}
