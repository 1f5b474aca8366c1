//go:build race

package serve

// raceEnabled reports that the race detector is active: the paper-scale
// replay test skips itself there (minutes of single-goroutine mining
// under the detector's slowdown, for no interleaving the test-scale
// replays do not already cover).
const raceEnabled = true
