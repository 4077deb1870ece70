//go:build !race

package policyhttp

const raceEnabled = false
