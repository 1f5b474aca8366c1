//go:build !race

package serve

// raceEnabled mirrors race_on_test.go for non-race builds.
const raceEnabled = false
