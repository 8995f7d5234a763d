#include "textflag.h"

// The lane kernels: chanceBits (rng.go) on up to sixteen xoshiro256**
// streams at once, lane i against its own threshold thr[i]. Per draw
// and lane:
//
//	k    = (rotl(s1*5, 7)*9) >> 11        s1*5 = s1 + s1<<2, x*9 = x + x<<3
//	mask = mask>>1 | (k-thr)&(1<<63)      the sign of k-thr is k < thr
//	t = s1<<17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl(s3, 45)
//
// and after n draws mask >>= 64-n: the AVX2 body does exactly this. s is
// [4][16]uint64, word-major: word k of lanes 0–7 (group 0) is the 64
// bytes at 128k, of lanes 8–15 (group 1) the 64 bytes at 128k+64; thr
// and out are [16]uint64, group 1 at byte 64.

// DRAW makes one draw on the eight lanes whose state is s0–s3 against
// thr (thresholds shifted left 11), leaving the outcomes in opmask k:
// twelve vector operations. AVX-512 compares unsigned into an opmask,
// so the draw needs no shift: its top 53 bits are k, and thr<<11 (no
// overflow, as thr < 2^53) has its low 11 bits clear, so k < thr ⇔
// draw < thr<<11. The state step uses three-way XORs: s3 ^= s1;
// s1 ^= s2^s0; s2 ^= s0^t; s0 ^= s3 (the new s3); s3 = rotl(s3, 45).
// t0 and t1 are scratch.
#define DRAW(s0, s1, s2, s3, thr, t0, t1, k) \
	VPSLLQ     $2, s1, t0; \
	VPADDQ     s1, t0, t0; \
	VPROLQ     $7, t0, t0; \
	VPSLLQ     $3, t0, t1; \
	VPADDQ     t1, t0, t0; \
	VPCMPUQ    $1, thr, t0, k; \
	VPSLLQ     $17, s1, t1; \
	VPXORQ     s1, s3, s3; \
	VPTERNLOGQ $0x96, s0, s2, s1; \
	VPTERNLOGQ $0x96, t1, s0, s2; \
	VPXORQ     s3, s0, s0; \
	VPROLQ     $45, s3, s3

// TRANSPOSE turns a group's frame, the 64 bytes at off(DX) whose byte j
// holds draw j's outcomes (bit i for the group's lane i), into the
// group's eight masks at off(DX). K3 keeps bytes 0 to n-1 and zeroes
// the rest, which hold an earlier call's draws. Each VPMOVB2M gathers
// the bytes' sign bits, lane 7's outcomes first, and each VPADDB moves
// the next lane's bit up to the sign.
#define TRANSPOSE(off, z) \
	VMOVDQU8.Z off(DX), K3, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+56(DX); \
	VPADDB     z, z, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+48(DX); \
	VPADDB     z, z, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+40(DX); \
	VPADDB     z, z, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+32(DX); \
	VPADDB     z, z, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+24(DX); \
	VPADDB     z, z, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+16(DX); \
	VPADDB     z, z, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+8(DX); \
	VPADDB     z, z, z; \
	VPMOVB2M   z, K4; \
	KMOVQ      K4, off+0(DX)

// func chanceLanesAVX512(s *[4][MaxLanes]uint64, thr *[MaxLanes]uint64, n, live int, out *[MaxLanes]uint64)
//
// Each draw's outcomes leave as one opmask byte, KMOVB to byte j of the
// group's frame in out (a store, no vector ALU operation), and the
// frames are transposed to masks once per call. With live > 8 the loop
// steps both groups, whose chains are independent, so that the two
// 512-bit ports have work while either group waits on a latency.
TEXT ·chanceLanesAVX512(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), AX
	MOVQ thr+8(FP), BX
	MOVQ n+16(FP), CX
	MOVQ live+24(FP), SI
	MOVQ out+32(FP), DX
	// K3 = the low n bits: -n mod 64 is 64-n, or 0 for n = 64.
	MOVQ $-1, R8
	NEGQ CX
	SHRQ CX, R8
	NEGQ CX
	KMOVQ R8, K3
	MOVQ DX, DI
	VMOVDQU64 (AX), Z0
	VMOVDQU64 128(AX), Z1
	VMOVDQU64 256(AX), Z2
	VMOVDQU64 384(AX), Z3
	VMOVDQU64 (BX), Z4
	VPSLLQ $11, Z4, Z4
	CMPQ SI, $8
	JLE  one

	VMOVDQU64 64(AX), Z16
	VMOVDQU64 192(AX), Z17
	VMOVDQU64 320(AX), Z18
	VMOVDQU64 448(AX), Z19
	VMOVDQU64 64(BX), Z20
	VPSLLQ $11, Z20, Z20

two:
	DRAW(Z0, Z1, Z2, Z3, Z4, Z7, Z8, K1)
	DRAW(Z16, Z17, Z18, Z19, Z20, Z21, Z22, K2)
	KMOVB K1, (DI)
	KMOVB K2, 64(DI)
	INCQ DI
	DECQ CX
	JNZ  two

	VMOVDQU64 Z16, 64(AX)
	VMOVDQU64 Z17, 192(AX)
	VMOVDQU64 Z18, 320(AX)
	VMOVDQU64 Z19, 448(AX)
	TRANSPOSE(64, Z9)
	JMP  done

one:
	DRAW(Z0, Z1, Z2, Z3, Z4, Z7, Z8, K1)
	KMOVB K1, (DI)
	INCQ DI
	DECQ CX
	JNZ  one

done:
	VMOVDQU64 Z0, (AX)
	VMOVDQU64 Z1, 128(AX)
	VMOVDQU64 Z2, 256(AX)
	VMOVDQU64 Z3, 384(AX)
	TRANSPOSE(0, Z9)
	VZEROUPPER
	RET

// STEP2 makes one draw on the four lanes whose state is s0–s3 against
// the thresholds in thr, shifting its outcome into m. Y11 holds the
// sign bit; Y12 and Y13 are scratch.
#define STEP2(s0, s1, s2, s3, thr, m) \
	VPSLLQ $2, s1, Y12; \
	VPADDQ s1, Y12, Y12; \
	VPSLLQ $7, Y12, Y13; \
	VPSRLQ $57, Y12, Y12; \
	VPOR   Y13, Y12, Y12; \
	VPSLLQ $3, Y12, Y13; \
	VPADDQ Y13, Y12, Y12; \
	VPSRLQ $11, Y12, Y12; \
	VPSUBQ thr, Y12, Y12; \
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

// func chanceLanesAVX2(s *[4][MaxLanes]uint64, thr *[MaxLanes]uint64, n, live int, out *[MaxLanes]uint64)
//
// One pass per group of eight lanes, lanes 0–3 and 4–7 of the group in
// two halves; a second pass only when live > 8.
TEXT ·chanceLanesAVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), AX
	MOVQ thr+8(FP), BX
	MOVQ n+16(FP), CX
	MOVQ live+24(FP), SI
	MOVQ out+32(FP), DX
	MOVQ $64, R8
	SUBQ CX, R8
	VMOVQ R8, X15
	VPCMPEQQ Y11, Y11, Y11
	VPSLLQ $63, Y11, Y11

pass:
	VMOVDQU (AX), Y0
	VMOVDQU 128(AX), Y1
	VMOVDQU 256(AX), Y2
	VMOVDQU 384(AX), Y3
	VMOVDQU 32(AX), Y4
	VMOVDQU 160(AX), Y5
	VMOVDQU 288(AX), Y6
	VMOVDQU 416(AX), Y7
	VMOVDQU (BX), Y10
	VMOVDQU 32(BX), Y14
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	MOVQ CX, R9

loop2:
	STEP2(Y0, Y1, Y2, Y3, Y10, Y8)
	STEP2(Y4, Y5, Y6, Y7, Y14, Y9)
	DECQ R9
	JNZ  loop2

	VPSRLQ X15, Y8, Y8
	VPSRLQ X15, Y9, Y9
	VMOVDQU Y0, (AX)
	VMOVDQU Y1, 128(AX)
	VMOVDQU Y2, 256(AX)
	VMOVDQU Y3, 384(AX)
	VMOVDQU Y4, 32(AX)
	VMOVDQU Y5, 160(AX)
	VMOVDQU Y6, 288(AX)
	VMOVDQU Y7, 416(AX)
	VMOVDQU Y8, (DX)
	VMOVDQU Y9, 32(DX)
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, DX
	SUBQ $8, SI
	JGT  pass
	VZEROUPPER
	RET
