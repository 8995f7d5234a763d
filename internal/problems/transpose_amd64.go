package problems

import "pga/internal/cpu"

// transposeVector is whether this host runs transpose64AVX512, which
// takes AVX512F alone.
var transposeVector = cpu.X86.AVX512F

// transpose64AVX512 is transpose64's body on ZMM registers
// (transpose_amd64.s).
//
//go:noescape
func transpose64AVX512(m *[64]uint64)
