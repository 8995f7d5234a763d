package rng

import "pga/internal/cpu"

// laneBodies lists the lane kernel bodies, fastest first: AVX-512 steps
// the eight lanes in one register per state word, AVX2 in two.
var laneBodies = []laneBody{
	{"avx512", chanceLanesAVX512, cpu.X86.AVX512F},
	{"avx2", chanceLanesAVX2, cpu.X86.AVX2},
	{"generic", chanceLanesGeneric, true},
}

// chanceLanesAVX512 is the laneKernel body on ZMM registers (AVX-512F).
//
//go:noescape
func chanceLanesAVX512(s *[4][MaxLanes]uint64, thr uint64, n, live int, out *[MaxLanes]uint64)

// chanceLanesAVX2 is the laneKernel body on YMM registers, lanes 0–3
// and 4–7 in two halves; it steps all eight whatever live is.
//
//go:noescape
func chanceLanesAVX2(s *[4][MaxLanes]uint64, thr uint64, n, live int, out *[MaxLanes]uint64)
