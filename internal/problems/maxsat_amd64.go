package problems

import "pga/internal/cpu"

// maxSATVector is whether this host runs maxSATCountAVX2.
var maxSATVector = cpu.X86.AVX2

// maxSATCountAVX2 is the pass of MaxSAT's vector body on YMM registers
// (maxsat_amd64.s): it sets planes, which must start zero, to each
// lane's number of satisfied clauses among the groups eight-clause
// groups of rows (MaxSAT.rows), bit-sliced — bit l of planes[j][b] is
// bit j of the count of lane l of block b — reading each literal's row
// of the polarity table at tab.
//
//go:noescape
func maxSATCountAVX2(tab *satRow, rows *uint32, groups int, planes *[64]satRow)

// maxSATRowsAVX2 interleaves blk, one gathered word of each block, into
// the 128 polarity table rows of its 64 genes: rows[2j] is
// blk[0..3][j], rows[2j+1] its complement.
//
//go:noescape
func maxSATRowsAVX2(blk *[satBlocks][64]uint64, rows *[128]satRow)
