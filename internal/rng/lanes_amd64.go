package rng

import "pga/internal/cpu"

// laneBodies lists the lane kernel bodies, fastest first: AVX-512 steps
// each group of eight lanes in one register per state word, both groups
// in one loop; AVX2 steps a group in two registers, one group after the
// other.
var laneBodies = []body[laneKernel]{
	{"avx512", chanceLanesAVX512, cpu.X86.AVX512DQ && cpu.X86.AVX512BW},
	{"avx2", chanceLanesAVX2, cpu.X86.AVX2},
	{"generic", chanceLanesGeneric, true},
}

// chanceLanesAVX512 is the laneKernel body on ZMM registers (AVX512F,
// with AVX512DQ's KMOVB and AVX512BW's byte vectors). It steps lanes 8–15
// only when live > 8.
//
//go:noescape
func chanceLanesAVX512(s *[4][MaxLanes]uint64, thr *[MaxLanes]uint64, n, live int, out *[MaxLanes]uint64)

// chanceLanesAVX2 is the laneKernel body on YMM registers: lanes 0–7,
// then lanes 8–15 when live > 8, each group in two halves of four.
//
//go:noescape
func chanceLanesAVX2(s *[4][MaxLanes]uint64, thr *[MaxLanes]uint64, n, live int, out *[MaxLanes]uint64)
