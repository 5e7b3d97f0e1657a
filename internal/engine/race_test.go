//go:build race

package engine_test

// The race detector makes sync.Pool drop items at random, so the JSON
// encoder's allocation count varies from call to call under -race.
func init() { raceEnabled = true }
