//go:build race

package island

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of what is put back, so pooled scratch is allocated again
// and allocation counts are not the production ones.
const raceEnabled = true
