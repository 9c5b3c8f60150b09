//go:build race

package server

// raceEnabled reports that this test binary was built with the race
// detector, which changes what goroutines and channels cost on the heap, so
// a byte count taken under it says nothing about a normal build.
const raceEnabled = true
