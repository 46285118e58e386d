//go:build !race

package anneal

const raceEnabled = false
