package rng

// laneBodies lists the lane kernel bodies, fastest first: AVX-512 steps
// the eight lanes in one register per state word, AVX2 in two.
var laneBodies = []laneBody{
	{"avx512", chanceLanesAVX512, hasAVX512},
	{"avx2", chanceLanesAVX2, hasAVX2},
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

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0, the state components the OS
// saves on a context switch.
func xgetbv() uint32

// The bodies this host may run: the CPU must report the instructions
// and the OS must save the registers they use (OSXSAVE, then XCR0's
// SSE/AVX bits, and its opmask/ZMM bits for AVX-512).
var hasAVX2, hasAVX512 = func() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false, false
	}
	xcr0 := xgetbv()
	_, b7, _, _ := cpuid(7, 0)
	const ymmState, zmmState = 0x6, 0xe6
	avx2 = xcr0&ymmState == ymmState && b7&(1<<5) != 0
	avx512 = avx2 && xcr0&zmmState == zmmState && b7&(1<<16) != 0
	return avx2, avx512
}()
