//go:build !amd64

package problems

// transposeVector is false off amd64: transpose64 runs its Go body.
const transposeVector = false

func transpose64AVX512(m *[64]uint64) {
	panic("problems: the AVX-512 transpose body runs on amd64 only")
}
