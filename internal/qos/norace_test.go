//go:build !race

package qos

const raceEnabled = false
