//go:build race

package server

// raceEnabled: the race detector is on, and sync.Pool drops items at
// random, so allocation counts are not exact.
const raceEnabled = true
