#include "textflag.h"

// NIB xors into acc the entry that nibble j of BX picks from the word's
// table at AX: entry v of nibble j is the 32 bytes at 512j + 32v, so
// the index is BX's bits 4j..4j+3 moved to bits 5..8 (sh by c: left for
// j < 2, right by 4j-5 after) and the displacement is 512j.
#define NIB(sh, c, disp, acc) \
	MOVQ  BX, CX; \
	sh    $c, CX; \
	ANDQ  $0x1e0, CX; \
	VPXOR disp(AX)(CX*1), acc, acc

// func imageAVX2(tab *[64][16][4]uint64, s [4]uint64) [4]uint64
//
// One 256-bit load and XOR per nibble, into two accumulators so that
// consecutive XORs do not wait on each other; the nibble tables of word
// w of s are the 8 KiB at 8192w.
TEXT ·imageAVX2(SB), NOSPLIT, $0-72
	MOVQ tab+0(FP), AX
	LEAQ s+8(FP), SI
	MOVQ $4, DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1

word:
	MOVQ (SI), BX
	NIB(SHLQ, 5, 0, Y0)
	NIB(SHLQ, 1, 512, Y1)
	NIB(SHRQ, 3, 1024, Y0)
	NIB(SHRQ, 7, 1536, Y1)
	NIB(SHRQ, 11, 2048, Y0)
	NIB(SHRQ, 15, 2560, Y1)
	NIB(SHRQ, 19, 3072, Y0)
	NIB(SHRQ, 23, 3584, Y1)
	NIB(SHRQ, 27, 4096, Y0)
	NIB(SHRQ, 31, 4608, Y1)
	NIB(SHRQ, 35, 5120, Y0)
	NIB(SHRQ, 39, 5632, Y1)
	NIB(SHRQ, 43, 6144, Y0)
	NIB(SHRQ, 47, 6656, Y1)
	NIB(SHRQ, 51, 7168, Y0)
	NIB(SHRQ, 55, 7680, Y1)
	ADDQ $8, SI
	ADDQ $8192, AX
	DECQ DI
	JNZ  word

	VPXOR   Y1, Y0, Y0
	VMOVDQU Y0, ret+40(FP)
	VZEROUPPER
	RET
