#include "textflag.h"

// transpose64's body on ZMM registers: the Go body's six delta-swap
// stages on eight registers of eight rows each, Z0 holding rows 0–7,
// Z1 rows 8–15, and so on. A stage's pair (a, b) of rows s apart takes
// t = (a>>s ^ b) & mask, then a ^= t<<s and b ^= t. Stages 32, 16 and 8
// pair whole registers; stages 4, 2 and 1 pair the qwords of one
// register, so a shuffle brings each qword's partner level with it.

// SWAP(a, b, s, mask) runs one stage on the rows of registers a and b.
#define SWAP(a, b, s, mask) \
	VPSRLQ     $s, a, Z14; \
	VPTERNLOGQ $0x28, mask, b, Z14; \
	VPXORQ     Z14, b, b; \
	VPSLLQ     $s, Z14, Z14; \
	VPXORQ     Z14, a, a

// INSWAP(x, s, mask, SHUF, imm, k) runs one stage on the qwords of x,
// where SHUF $imm moves every qword to its partner's place and k marks
// the first qword of each pair. t is formed in the first qwords, then
// shuffled to the second ones, and the first ones take t<<s instead.
#define INSWAP(x, s, mask, SHUF, imm, k) \
	SHUF       $imm, x, x, Z15; \
	VPSRLQ     $s, x, Z14; \
	VPTERNLOGQ $0x28, mask, Z15, Z14; \
	SHUF       $imm, Z14, Z14, Z15; \
	VPSLLQ     $s, Z14, k, Z15; \
	VPXORQ     Z15, x, x

// INSWAP1 is INSWAP for qwords one apart, whose shuffle, VPSHUFD,
// swaps the halves of each 128-bit lane from one source.
#define INSWAP1(x) \
	VPSHUFD    $0x4E, x, Z15; \
	VPSRLQ     $1, x, Z14; \
	VPTERNLOGQ $0x28, Z13, Z15, Z14; \
	VPSHUFD    $0x4E, Z14, Z15; \
	VPSLLQ     $1, Z14, K3, Z15; \
	VPXORQ     Z15, x, x

// func transpose64AVX512(m *[64]uint64)
TEXT ·transpose64AVX512(SB), NOSPLIT, $0-8
	MOVQ m+0(FP), AX
	VMOVDQU64 (AX), Z0
	VMOVDQU64 64(AX), Z1
	VMOVDQU64 128(AX), Z2
	VMOVDQU64 192(AX), Z3
	VMOVDQU64 256(AX), Z4
	VMOVDQU64 320(AX), Z5
	VMOVDQU64 384(AX), Z6
	VMOVDQU64 448(AX), Z7

	MOVQ         $0x00000000FFFFFFFF, DX
	VPBROADCASTQ DX, Z8
	MOVQ         $0x0000FFFF0000FFFF, DX
	VPBROADCASTQ DX, Z9
	MOVQ         $0x00FF00FF00FF00FF, DX
	VPBROADCASTQ DX, Z10
	MOVQ         $0x0F0F0F0F0F0F0F0F, DX
	VPBROADCASTQ DX, Z11
	MOVQ         $0x3333333333333333, DX
	VPBROADCASTQ DX, Z12
	MOVQ         $0x5555555555555555, DX
	VPBROADCASTQ DX, Z13

	// The first qword of each pair, for qwords 4, 2 and 1 apart.
	MOVW  $0x0F, DX
	KMOVW DX, K1
	MOVW  $0x33, DX
	KMOVW DX, K2
	MOVW  $0x55, DX
	KMOVW DX, K3

	SWAP(Z0, Z4, 32, Z8)
	SWAP(Z1, Z5, 32, Z8)
	SWAP(Z2, Z6, 32, Z8)
	SWAP(Z3, Z7, 32, Z8)

	SWAP(Z0, Z2, 16, Z9)
	SWAP(Z1, Z3, 16, Z9)
	SWAP(Z4, Z6, 16, Z9)
	SWAP(Z5, Z7, 16, Z9)

	SWAP(Z0, Z1, 8, Z10)
	SWAP(Z2, Z3, 8, Z10)
	SWAP(Z4, Z5, 8, Z10)
	SWAP(Z6, Z7, 8, Z10)

	// Qwords 4 apart: swap the 256-bit halves.
	INSWAP(Z0, 4, Z11, VSHUFI64X2, 0x4E, K1)
	INSWAP(Z1, 4, Z11, VSHUFI64X2, 0x4E, K1)
	INSWAP(Z2, 4, Z11, VSHUFI64X2, 0x4E, K1)
	INSWAP(Z3, 4, Z11, VSHUFI64X2, 0x4E, K1)
	INSWAP(Z4, 4, Z11, VSHUFI64X2, 0x4E, K1)
	INSWAP(Z5, 4, Z11, VSHUFI64X2, 0x4E, K1)
	INSWAP(Z6, 4, Z11, VSHUFI64X2, 0x4E, K1)
	INSWAP(Z7, 4, Z11, VSHUFI64X2, 0x4E, K1)

	// Qwords 2 apart: swap the 128-bit lanes of each 256-bit half.
	INSWAP(Z0, 2, Z12, VSHUFI64X2, 0xB1, K2)
	INSWAP(Z1, 2, Z12, VSHUFI64X2, 0xB1, K2)
	INSWAP(Z2, 2, Z12, VSHUFI64X2, 0xB1, K2)
	INSWAP(Z3, 2, Z12, VSHUFI64X2, 0xB1, K2)
	INSWAP(Z4, 2, Z12, VSHUFI64X2, 0xB1, K2)
	INSWAP(Z5, 2, Z12, VSHUFI64X2, 0xB1, K2)
	INSWAP(Z6, 2, Z12, VSHUFI64X2, 0xB1, K2)
	INSWAP(Z7, 2, Z12, VSHUFI64X2, 0xB1, K2)

	// Qwords 1 apart.
	INSWAP1(Z0)
	INSWAP1(Z1)
	INSWAP1(Z2)
	INSWAP1(Z3)
	INSWAP1(Z4)
	INSWAP1(Z5)
	INSWAP1(Z6)
	INSWAP1(Z7)

	VMOVDQU64 Z0, (AX)
	VMOVDQU64 Z1, 64(AX)
	VMOVDQU64 Z2, 128(AX)
	VMOVDQU64 Z3, 192(AX)
	VMOVDQU64 Z4, 256(AX)
	VMOVDQU64 Z5, 320(AX)
	VMOVDQU64 Z6, 384(AX)
	VMOVDQU64 Z7, 448(AX)
	VZEROUPPER
	RET
