//go:build !race

package client_test

// raceEnabled reports whether the race detector is active; see race_test.go.
const raceEnabled = false
