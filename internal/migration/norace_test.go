//go:build !race

package migration

const raceEnabled = false
