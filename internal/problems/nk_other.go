//go:build !amd64

package problems

// nkVector is false off amd64: NK's lane kernel runs its Go body.
const nkVector = false

func nkLanesAVX512(table *float64, loci *uint32, vars *[laneTile]uint64, n, k, groups int, acc *[64]float64) {
	panic("problems: the AVX-512 NK body runs on amd64 only")
}
