package faultsim

// shrink reduces a failing trace to a locally minimal one: a delta-
// debugging pass removes chunks of operations — halves first, then ever
// smaller slices down to single ops — keeping a removal whenever the
// remaining trace still fails, until no single-op removal does. check must
// return true when the candidate trace still reproduces the failure; it is
// called with freshly built slices and may replay them destructively.
func shrink(trace []Op, check func([]Op) bool) []Op {
	cur := append([]Op(nil), trace...)
	chunk := len(cur) / 2
	if chunk < 1 {
		chunk = 1
	}
	for {
		removed := false
		for start := 0; start+chunk <= len(cur); {
			candidate := make([]Op, 0, len(cur)-chunk)
			candidate = append(candidate, cur[:start]...)
			candidate = append(candidate, cur[start+chunk:]...)
			if len(candidate) > 0 && check(candidate) {
				cur = candidate
				removed = true
				// Same start again: the next chunk shifted into place.
			} else {
				start += chunk
			}
		}
		if chunk == 1 && !removed {
			return cur
		}
		if chunk > 1 {
			chunk /= 2
		}
	}
}
