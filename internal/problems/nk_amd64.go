package problems

import "pga/internal/cpu"

// nkVector is whether this host runs nkLanesAVX512, which takes
// AVX512F's permutes and AVX512DQ's byte-wide opmask loads.
var nkVector = cpu.X86.AVX512F && cpu.X86.AVX512DQ

// nkLanesAVX512 is NK's lane kernel body on ZMM registers, for k ≤ 4
// (nk_amd64.s): it adds gene i's contribution to acc[l] for i = 0..n-1
// and every lane l of the first groups eight-lane groups of vars
// (gatherLanes' layout), acc starting at +0.
//
//go:noescape
func nkLanesAVX512(table *float64, loci *uint32, vars *[laneTile]uint64, n, k, groups int, acc *[64]float64)
