package problems

// transpose64 transposes a 64×64 bit matrix in place: afterwards bit j
// of m[i] is what bit i of m[j] was (LSB-first, like BitString). It is
// the gather step of bit-sliced evaluation — 64 genomes' word w go in
// as rows, and row j comes out holding gene 64w+j of every genome, one
// lane per genome — and its own inverse, which un-slices MaxSAT's
// counts. It runs the AVX-512 body where transposeVector says the host
// has one (transpose_amd64.s), the Go body otherwise; both swap the same
// bits.
func transpose64(m *[64]uint64) {
	if transposeVector {
		transpose64AVX512(m)
		return
	}
	transpose64Go(m)
}

// transpose64Go is transpose64's Go body: six stages of block swaps
// (Hacker's Delight §7-3), 32×32 off-diagonal blocks first, then 16×16
// inside each, down to single bits. Each stage has a constant shift and
// mask and walks fixed-size views of m, so no element access is bounds
// checked; the last two stages run together on each four-row block.
func transpose64Go(m *[64]uint64) {
	lo, hi := (*[32]uint64)(m[:32]), (*[32]uint64)(m[32:])
	for k := range lo {
		lo[k], hi[k] = deltaSwap(lo[k], hi[k], 32, 0x00000000FFFFFFFF)
	}
	for base := 0; base < 64; base += 32 {
		b := (*[32]uint64)(m[base : base+32])
		for k := range 16 {
			b[k], b[k+16] = deltaSwap(b[k], b[k+16], 16, 0x0000FFFF0000FFFF)
		}
	}
	for base := 0; base < 64; base += 16 {
		b := (*[16]uint64)(m[base : base+16])
		for k := range 8 {
			b[k], b[k+8] = deltaSwap(b[k], b[k+8], 8, 0x00FF00FF00FF00FF)
		}
	}
	for base := 0; base < 64; base += 8 {
		b := (*[8]uint64)(m[base : base+8])
		for k := range 4 {
			b[k], b[k+4] = deltaSwap(b[k], b[k+4], 4, 0x0F0F0F0F0F0F0F0F)
		}
	}
	for base := 0; base < 64; base += 4 {
		b := (*[4]uint64)(m[base : base+4])
		b0, b2 := deltaSwap(b[0], b[2], 2, 0x3333333333333333)
		b1, b3 := deltaSwap(b[1], b[3], 2, 0x3333333333333333)
		b[0], b[1] = deltaSwap(b0, b1, 1, 0x5555555555555555)
		b[2], b[3] = deltaSwap(b2, b3, 1, 0x5555555555555555)
	}
}

// deltaSwap exchanges the bits of a selected by mask<<s with the bits of
// b selected by mask.
func deltaSwap(a, b uint64, s uint, mask uint64) (uint64, uint64) {
	t := (a>>s ^ b) & mask
	return a ^ t<<s, b ^ t
}
