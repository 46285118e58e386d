//go:build race

package qos

// raceEnabled reports that the race detector is on: its sync.Pool drops
// entries at random, so allocation counts over a pooled scratch skip.
const raceEnabled = true
