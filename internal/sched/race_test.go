//go:build race

package sched

// raceEnabled reports that the race detector is on: the corpus test, which
// proves nothing about concurrency and runs ten times slower under it, skips.
const raceEnabled = true
