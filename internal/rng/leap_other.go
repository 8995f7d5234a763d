//go:build !amd64

package rng

// leapBodies lists Leap.image's bodies, fastest first. Off amd64 the
// generic body is the only one.
var leapBodies = []body[imageBody]{{"generic", imageGeneric, true}}
