//go:build !race

package detector

const raceEnabled = false
