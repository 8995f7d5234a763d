#include "textflag.h"

// The pass of MaxSAT's vector body on YMM registers. A row of the
// polarity table is one YMM word, the lane words of satBlocks = 4
// blocks, and a literal 2v+neg is row 2v+neg, at byte 32*(2v+neg); a
// clause is one load and two ORs. The count is the Go body's
// carry-save tree on YMM words: per group of eight clauses, carry-save
// adders absorb them into ones (Y0), twos (Y1) and fours (Y2), and the
// group's eights carry is rippled into the planes from plane 3. Planes
// 0–2 are not touched until the end, when they take ones, twos and
// fours as they are. The clauses come in whole groups (padding clauses
// read a row that is zero in every lane), so there is no tail.

// CLAUSE(off, dst) sets dst to the truth value, in every lane, of the
// clause off bytes past DI.
#define CLAUSE(off, dst) \
	MOVL    off(DI), AX; \
	MOVL    off+4(DI), R9; \
	MOVL    off+8(DI), R10; \
	SHLQ    $5, AX; \
	SHLQ    $5, R9; \
	SHLQ    $5, R10; \
	VMOVDQU (BX)(AX*1), dst; \
	VPOR    (BX)(R9*1), dst, dst; \
	VPOR    (BX)(R10*1), dst, dst

// CSA(a, b, c, hi) is a carry-save adder: per lane bit, a+b+c is
// 2*hi + a, a taking the sum.
#define CSA(a, b, c, hi) \
	VPXOR b, a, Y13; \
	VPAND b, a, hi; \
	VPAND c, Y13, Y14; \
	VPOR  Y14, hi, hi; \
	VPXOR c, Y13, a

// func maxSATCountAVX2(tab *satRow, rows *uint32, groups int, planes *[64]satRow)
TEXT ·maxSATCountAVX2(SB), NOSPLIT, $0-32
	MOVQ  tab+0(FP), BX
	MOVQ  rows+8(FP), DI
	MOVQ  groups+16(FP), CX
	MOVQ  planes+24(FP), R8
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2

group:
	CLAUSE(0, Y3)
	CLAUSE(12, Y4)
	CSA(Y0, Y3, Y4, Y5)
	CLAUSE(24, Y3)
	CLAUSE(36, Y4)
	CSA(Y0, Y3, Y4, Y6)
	CSA(Y1, Y5, Y6, Y7)
	CLAUSE(48, Y3)
	CLAUSE(60, Y4)
	CSA(Y0, Y3, Y4, Y5)
	CLAUSE(72, Y3)
	CLAUSE(84, Y4)
	CSA(Y0, Y3, Y4, Y6)
	CSA(Y1, Y5, Y6, Y8)
	CSA(Y2, Y7, Y8, Y9)
	ADDQ $96, DI

	// The eights, Y9, ripple up from plane 3 while any lane carries.
	VPTEST Y9, Y9
	JZ     next
	LEAQ   96(R8), SI

ripple:
	VMOVDQU (SI), Y10
	VPXOR   Y9, Y10, Y11
	VPAND   Y10, Y9, Y9
	VMOVDQU Y11, (SI)
	ADDQ    $32, SI
	VPTEST  Y9, Y9
	JNZ     ripple

next:
	DECQ CX
	JNZ  group

	VMOVDQU Y0, (R8)
	VMOVDQU Y1, 32(R8)
	VMOVDQU Y2, 64(R8)
	VZEROUPPER
	RET

// func maxSATRowsAVX2(blk *[satBlocks][64]uint64, rows *[128]satRow)
//
// Four genes at a time: the four blocks' lane words of genes j..j+3 are
// a 4×4 matrix of qwords, transposed by two unpacks and a lane permute
// into rows j..j+3 of lane words, each stored with its complement.
TEXT ·maxSATRowsAVX2(SB), NOSPLIT, $0-16
	MOVQ      blk+0(FP), SI
	MOVQ      rows+8(FP), DI
	MOVQ      $16, CX
	VPCMPEQQ  Y15, Y15, Y15

rows:
	VMOVDQU     (SI), Y0
	VMOVDQU     512(SI), Y1
	VMOVDQU     1024(SI), Y2
	VMOVDQU     1536(SI), Y3
	VPUNPCKLQDQ Y1, Y0, Y4
	VPUNPCKHQDQ Y1, Y0, Y5
	VPUNPCKLQDQ Y3, Y2, Y6
	VPUNPCKHQDQ Y3, Y2, Y7
	VPERM2I128  $0x20, Y6, Y4, Y0
	VPERM2I128  $0x20, Y7, Y5, Y1
	VPERM2I128  $0x31, Y6, Y4, Y2
	VPERM2I128  $0x31, Y7, Y5, Y3
	VPXOR       Y15, Y0, Y4
	VPXOR       Y15, Y1, Y5
	VPXOR       Y15, Y2, Y6
	VPXOR       Y15, Y3, Y7
	VMOVDQU     Y0, (DI)
	VMOVDQU     Y4, 32(DI)
	VMOVDQU     Y1, 64(DI)
	VMOVDQU     Y5, 96(DI)
	VMOVDQU     Y2, 128(DI)
	VMOVDQU     Y6, 160(DI)
	VMOVDQU     Y3, 192(DI)
	VMOVDQU     Y7, 224(DI)
	ADDQ        $32, SI
	ADDQ        $256, DI
	DECQ        CX
	JNZ         rows
	VZEROUPPER
	RET
