//go:build race

package backend

// raceEnabled reports that the race detector is on. sync.Pool then drops a
// quarter of its Puts on purpose, so allocation bounds on pooled paths do not
// hold and the tests asserting them skip.
const raceEnabled = true
