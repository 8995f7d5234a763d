#include "textflag.h"

// NK's lane kernel body on ZMM registers, for k+1 ≤ 5 loci per gene.
//
// Per gene, its table row (up to 32 float64s) is loaded into Z0–Z3 once
// and serves every eight-lane group. Per group g, byte g of the lane
// word vars[j] of each locus j is an opmask, one bit per lane. The
// loci fill five slots, the last locus in slot 4; slots a smaller k
// leaves empty point at eight zero bytes, so their masks are clear.
// Slots 1–4 give each lane's index bits 3–0 by masked ORs, and slot 0
// (the first locus when k = 4) is the index's bit 4: two two-source
// permutes look the index up in entries 0–15 and 16–31, and a blend on
// slot 0's mask picks one. The result is added lane-wise into the
// group's accumulator, Z16+g: per lane, the contributions of genes
// 0..n-1 in that order from +0 — Evaluate's additions exactly.
//
// Rows shorter than 32 entries are loaded only as far as they go, and
// the entries the permutes could select past them are never indexed: a
// row of 2^(k+1) entries is indexed by k+1 bits.

DATA nkzero<>+0(SB)/8, $0
GLOBL nkzero<>(SB), RODATA|NOPTR, $8

// GROUP(g, acc) adds, for the eight lanes of group g, gene i's
// contribution into acc.
#define GROUP(g, acc) \
	KMOVB g(R8), K1; \
	KMOVB g(R9), K2; \
	KMOVB g(R10), K3; \
	KMOVB g(R11), K4; \
	KMOVB g(R12), K5; \
	VMOVDQA64.Z Z4, K2, Z8; \
	VPORQ Z5, Z8, K3, Z8; \
	VPORQ Z6, Z8, K4, Z8; \
	VPORQ Z7, Z8, K5, Z8; \
	VMOVAPD Z8, Z9; \
	VPERMI2PD Z1, Z0, Z8; \
	VPERMI2PD Z3, Z2, Z9; \
	VBLENDMPD Z9, Z8, K1, Z8; \
	VADDPD Z8, acc, acc

// func nkLanesAVX512(table *float64, loci *uint32, vars *[laneTile]uint64, n, k, groups int, acc *[64]float64)
TEXT ·nkLanesAVX512(SB), NOSPLIT, $0-56
	MOVQ table+0(FP), SI
	MOVQ loci+8(FP), DI
	MOVQ vars+16(FP), BX
	MOVQ k+32(FP), DX
	MOVQ groups+40(FP), R13

	// R14 is a row's bytes, 8<<(k+1); K6 masks the entries of its first
	// eight that the row has.
	LEAQ 1(DX), CX
	MOVQ $8, R14
	SHLQ CX, R14
	MOVQ $0xFF, AX
	CMPQ DX, $1
	JGT  rowmask
	MOVQ $0x0F, AX
	JEQ  rowmask
	MOVQ $0x03, AX

rowmask:
	KMOVB AX, K6
	MOVQ  n+24(FP), CX

	// Index bits 3, 2, 1 and 0 for slots 1–4.
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z4
	MOVQ         $4, AX
	VPBROADCASTQ AX, Z5
	MOVQ         $2, AX
	VPBROADCASTQ AX, Z6
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z7

	LEAQ nkzero<>(SB), R8
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	MOVQ R8, R12

	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

gene:
	// Gene i's loci into slots 4-k..4, and its row into Z0–Z3 as far
	// as it goes.
	CMPQ    DX, $4
	JLT     slot1
	MOVL    (DI), AX
	LEAQ    (BX)(AX*8), R8
	ADDQ    $4, DI
	VMOVUPD 128(SI), Z2
	VMOVUPD 192(SI), Z3

slot1:
	CMPQ    DX, $3
	JLT     slot2
	MOVL    (DI), AX
	LEAQ    (BX)(AX*8), R9
	ADDQ    $4, DI
	VMOVUPD 64(SI), Z1

slot2:
	CMPQ DX, $2
	JLT  slot3
	MOVL (DI), AX
	LEAQ (BX)(AX*8), R10
	ADDQ $4, DI

slot3:
	CMPQ DX, $1
	JLT  slot4
	MOVL (DI), AX
	LEAQ (BX)(AX*8), R11
	ADDQ $4, DI

slot4:
	MOVL      (DI), AX
	LEAQ      (BX)(AX*8), R12
	ADDQ      $4, DI
	VMOVUPD.Z (SI), K6, Z0
	ADDQ      R14, SI

	GROUP(0, Z16)
	CMPQ R13, $1
	JEQ  next
	GROUP(1, Z17)
	CMPQ R13, $2
	JEQ  next
	GROUP(2, Z18)
	CMPQ R13, $3
	JEQ  next
	GROUP(3, Z19)
	CMPQ R13, $4
	JEQ  next
	GROUP(4, Z20)
	CMPQ R13, $5
	JEQ  next
	GROUP(5, Z21)
	CMPQ R13, $6
	JEQ  next
	GROUP(6, Z22)
	CMPQ R13, $7
	JEQ  next
	GROUP(7, Z23)

next:
	DECQ CX
	JNZ  gene

	MOVQ    acc+48(FP), AX
	VMOVUPD Z16, (AX)
	VMOVUPD Z17, 64(AX)
	VMOVUPD Z18, 128(AX)
	VMOVUPD Z19, 192(AX)
	VMOVUPD Z20, 256(AX)
	VMOVUPD Z21, 320(AX)
	VMOVUPD Z22, 384(AX)
	VMOVUPD Z23, 448(AX)

	// VZEROUPPER returns the upper halves of Z0–Z15 to zero; Z16–Z23
	// are zeroed by hand, so no register holds AVX-512 state past here.
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VZEROUPPER
	RET
