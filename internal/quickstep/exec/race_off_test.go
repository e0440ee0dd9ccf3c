//go:build !race

package exec

// raceEnabled reports whether the race detector build tag is active: under
// -race sync.Pool drops a share of what is put back, so allocation counts
// stop describing the code.
const raceEnabled = false
