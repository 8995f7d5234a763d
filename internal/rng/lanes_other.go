//go:build !amd64

package rng

// laneBodies lists the lane kernel bodies, fastest first. Off amd64 the
// generic body is the only one: it runs at ChanceMask's speed.
var laneBodies = []body[laneKernel]{{"generic", chanceLanesGeneric, true}}
