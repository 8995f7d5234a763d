package rng

import "pga/internal/cpu"

// leapBodies lists Leap.image's bodies, fastest first: AVX2 xors each
// nibble's 32-byte entry in one YMM load.
var leapBodies = []body[imageBody]{
	{"avx2", imageAVX2, cpu.X86.AVX2},
	{"generic", imageGeneric, true},
}

// imageAVX2 is the leapImage body on YMM registers (AVX2).
//
//go:noescape
func imageAVX2(tab *[64][16][4]uint64, s [4]uint64) [4]uint64
