//go:build race

package transport

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of what is put back, so fmt allocates its printer again
// at random and Faulty's schedule lines have no fixed allocation count.
const raceEnabled = true
