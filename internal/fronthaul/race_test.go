//go:build race

package fronthaul

// raceEnabled reports that the race detector is on: instrumented code
// allocates more, so the tests asserting allocation bounds skip.
const raceEnabled = true
