// Package cpu is the module's one CPU feature probe: which x86 vector
// extensions this host's processor reports and its OS saves the
// registers of. The packages with amd64 assembly (internal/rng's
// ChanceMask lanes and Leap.image, internal/problems' NK lane kernel,
// MaxSAT's bit-sliced kernel and the lane transpose) pick their kernel
// bodies from it once, at start-up or per instance at construction;
// there is no switch to override it.
package cpu

// Features are the extensions the module's assembly uses. A field is
// true only when the CPU reports the instructions and the OS saves the
// registers they use (OSXSAVE, then XCR0's SSE/AVX bits, and its
// opmask/ZMM bits for AVX-512).
type Features struct {
	// AVX2: 256-bit integer vectors on YMM registers.
	AVX2 bool
	// AVX512F: the AVX-512 foundation — ZMM registers, opmasks, masked
	// and two-source permutes.
	AVX512F bool
	// AVX512DQ: byte-wide opmask moves (KMOVB), besides AVX512F.
	AVX512DQ bool
	// AVX512BW: byte-element vectors and 64-bit opmasks (VPMOVB2M,
	// VMOVDQU8, KMOVQ), besides AVX512F.
	AVX512BW bool
}

// X86 is this host's; every field is false off amd64.
var X86 = probe()
