//go:build race

package exec

// raceEnabled reports whether the race detector build tag is active.
const raceEnabled = true
