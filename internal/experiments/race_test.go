//go:build race

package experiments

// raceEnabled reports that the race detector is on: the shape suite, which is
// single-goroutine arithmetic and runs ten times slower under it, skips.
const raceEnabled = true
