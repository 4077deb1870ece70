//go:build race

package policyhttp

// raceEnabled: under the race detector sync.Pool drops pooled objects at
// random, so allocation counts do not measure the program.
const raceEnabled = true
