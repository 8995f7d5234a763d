package cpu

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0, the state components the OS
// saves on a context switch.
func xgetbv() uint32

func probe() Features {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return Features{}
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return Features{}
	}
	xcr0 := xgetbv()
	_, b7, _, _ := cpuid(7, 0)
	const ymmState, zmmState = 0x6, 0xe6
	const avx2, avx512f, avx512dq, avx512bw = 1 << 5, 1 << 16, 1 << 17, 1 << 30
	var f Features
	f.AVX2 = xcr0&ymmState == ymmState && b7&avx2 != 0
	f.AVX512F = f.AVX2 && xcr0&zmmState == zmmState && b7&avx512f != 0
	f.AVX512DQ = f.AVX512F && b7&avx512dq != 0
	f.AVX512BW = f.AVX512F && b7&avx512bw != 0
	return f
}
