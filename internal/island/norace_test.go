//go:build !race

package island

const raceEnabled = false
