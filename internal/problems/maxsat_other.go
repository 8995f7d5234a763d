//go:build !amd64

package problems

// maxSATVector is false off amd64: MaxSAT's bit-sliced kernel runs its
// Go body.
const maxSATVector = false

func maxSATCountAVX2(tab *satRow, rows *uint32, groups int, planes *[64]satRow) {
	panic("problems: the AVX2 MaxSAT body runs on amd64 only")
}

func maxSATRowsAVX2(blk *[satBlocks][64]uint64, rows *[128]satRow) {
	panic("problems: the AVX2 MaxSAT body runs on amd64 only")
}
