//go:build race

package vm

// The race detector instruments allocations, so allocation-count
// assertions are skipped under -race.
const raceEnabled = true
