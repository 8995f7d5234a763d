#include "textflag.h"

// The lane kernels: chanceBits (rng.go) on eight xoshiro256** streams at
// once. Per draw and lane:
//
//	k    = (rotl(s1*5, 7)*9) >> 11        s1*5 = s1 + s1<<2, x*9 = x + x<<3
//	mask = mask>>1 | (k-thr)&(1<<63)      the sign of k-thr is k < thr
//	t = s1<<17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl(s3, 45)
//
// and after n draws mask >>= 64-n: the AVX2 body does exactly this. s is
// [4][8]uint64, word-major: word k of lanes 0–7 is the 64 bytes at 64k.

// func chanceLanesAVX512(s *[4][MaxLanes]uint64, thr uint64, n, live int, out *[MaxLanes]uint64)
//
// AVX-512 compares unsigned into an opmask, so k needs no shift: k is
// the draw's top 53 bits and thr<<11 (no overflow, as thr < 2^53) has
// its low 11 bits clear, so k < thr ⇔ draw < thr<<11. Draw i's outcome
// is ORed in as bit i, from a bit that doubles each draw, so the mask
// needs no final shift either.
TEXT ·chanceLanesAVX512(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), AX
	MOVQ n+16(FP), CX
	MOVQ out+32(FP), DX
	VMOVDQU64 (AX), Z0
	VMOVDQU64 64(AX), Z1
	VMOVDQU64 128(AX), Z2
	VMOVDQU64 192(AX), Z3
	MOVQ thr+8(FP), BX
	SHLQ $11, BX
	VPBROADCASTQ BX, Z4
	MOVQ $1, BX
	VPBROADCASTQ BX, Z5
	VPXORQ Z6, Z6, Z6

loop512:
	// The draw, in Z7, against thr<<11; bit i of the lanes it is below.
	VPSLLQ $2, Z1, Z7
	VPADDQ Z1, Z7, Z7
	VPROLQ $7, Z7, Z7
	VPSLLQ $3, Z7, Z8
	VPADDQ Z8, Z7, Z7
	VPCMPUQ $1, Z4, Z7, K1
	VPORQ Z5, Z6, K1, Z6
	VPADDQ Z5, Z5, Z5
	// The state step, with three-way XORs: s3 ^= s1; s1 ^= s2^s0;
	// s2 ^= s0^t; s0 ^= s3 (the new s3); s3 = rotl(s3, 45).
	VPSLLQ $17, Z1, Z8
	VPXORQ Z1, Z3, Z3
	VPTERNLOGQ $0x96, Z0, Z2, Z1
	VPTERNLOGQ $0x96, Z8, Z0, Z2
	VPXORQ Z3, Z0, Z0
	VPROLQ $45, Z3, Z3
	DECQ CX
	JNZ  loop512

	VMOVDQU64 Z0, (AX)
	VMOVDQU64 Z1, 64(AX)
	VMOVDQU64 Z2, 128(AX)
	VMOVDQU64 Z3, 192(AX)
	VMOVDQU64 Z6, (DX)
	VZEROUPPER
	RET

// STEP2 makes one draw on the four lanes whose state is s0–s3,
// shifting its outcome into m. Y10 holds thr, Y11 the sign bit; Y12 and
// Y13 are scratch.
#define STEP2(s0, s1, s2, s3, m) \
	VPSLLQ $2, s1, Y12; \
	VPADDQ s1, Y12, Y12; \
	VPSLLQ $7, Y12, Y13; \
	VPSRLQ $57, Y12, Y12; \
	VPOR   Y13, Y12, Y12; \
	VPSLLQ $3, Y12, Y13; \
	VPADDQ Y13, Y12, Y12; \
	VPSRLQ $11, Y12, Y12; \
	VPSUBQ Y10, Y12, Y12; \
	VPAND  Y11, Y12, Y12; \
	VPSRLQ $1, m, m; \
	VPOR   Y12, m, m; \
	VPSLLQ $17, s1, Y12; \
	VPXOR  s0, s2, s2; \
	VPXOR  s1, s3, s3; \
	VPXOR  s2, s1, s1; \
	VPXOR  s3, s0, s0; \
	VPXOR  Y12, s2, s2; \
	VPSLLQ $45, s3, Y13; \
	VPSRLQ $19, s3, s3; \
	VPOR   Y13, s3, s3

// func chanceLanesAVX2(s *[4][MaxLanes]uint64, thr uint64, n, live int, out *[MaxLanes]uint64)
TEXT ·chanceLanesAVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), AX
	MOVQ n+16(FP), CX
	MOVQ out+32(FP), DX
	VMOVDQU (AX), Y0
	VMOVDQU 64(AX), Y1
	VMOVDQU 128(AX), Y2
	VMOVDQU 192(AX), Y3
	VMOVDQU 32(AX), Y4
	VMOVDQU 96(AX), Y5
	VMOVDQU 160(AX), Y6
	VMOVDQU 224(AX), Y7
	VPBROADCASTQ thr+8(FP), Y10
	VPCMPEQQ Y11, Y11, Y11
	VPSLLQ $63, Y11, Y11
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	MOVQ CX, BX

loop2:
	STEP2(Y0, Y1, Y2, Y3, Y8)
	STEP2(Y4, Y5, Y6, Y7, Y9)
	DECQ BX
	JNZ  loop2

	MOVQ $64, BX
	SUBQ CX, BX
	VMOVQ BX, X12
	VPSRLQ X12, Y8, Y8
	VPSRLQ X12, Y9, Y9
	VMOVDQU Y0, (AX)
	VMOVDQU Y1, 64(AX)
	VMOVDQU Y2, 128(AX)
	VMOVDQU Y3, 192(AX)
	VMOVDQU Y4, 32(AX)
	VMOVDQU Y5, 96(AX)
	VMOVDQU Y6, 160(AX)
	VMOVDQU Y7, 224(AX)
	VMOVDQU Y8, (DX)
	VMOVDQU Y9, 32(DX)
	VZEROUPPER
	RET
