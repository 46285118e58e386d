//go:build !race

package fronthaul

const raceEnabled = false
