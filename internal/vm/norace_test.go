//go:build !race

package vm

const raceEnabled = false
