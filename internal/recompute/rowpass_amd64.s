#include "textflag.h"

// The AVX2 row pass of the knapsack (see rowpass.go). One block covers the
// four cells c0..c0+3, c0 a multiple of 4, and blocks run from the top down:
//
//	Y1 = src[c0..c0+3] + value        VADDPD, the scalar sum lane by lane
//	Y3 = Y1 > dst[c0..c0+3]           VCMPPD GT_OQ: false when either is NaN
//	dst[c0..c0+3] = Y3 ? Y1 : dst     VBLENDVPD
//	acc |= (the 4 bits of Y3) << c0%64   VMOVMSKPD, SHLQ (the count is mod 64)
//
// Both loads of a block precede its store, and earlier blocks stored only
// above dst[c0+3], which lies above src[c0+3] (weight ≥ 1), so every lane
// reads what the scalar loop reads. acc is the word of c0's choices; once
// the block at its lowest cell is done it is stored whole and restarts at 0.
//
// Register use: DI dst, SI src, R8 words, CX c0, AX acc, DX the block's
// bits, BX the word index, Y0 the broadcast value.

// func rowBlocksAVX2(dst, src *float64, value float64, words *uint64, n int, acc uint64)
TEXT ·rowBlocksAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD value+16(FP), Y0
	MOVQ         words+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVQ         acc+40(FP), AX

block:
	SUBQ      $4, CX
	VADDPD    (SI)(CX*8), Y0, Y1
	VMOVUPD   (DI)(CX*8), Y2
	VCMPPD    $0x1e, Y2, Y1, Y3
	VBLENDVPD Y3, Y1, Y2, Y2
	VMOVUPD   Y2, (DI)(CX*8)
	VMOVMSKPD Y3, DX
	SHLQ      CX, DX
	ORQ       DX, AX
	TESTQ     $63, CX
	JNZ       next
	MOVQ      CX, BX
	SHRQ      $6, BX
	MOVQ      AX, (R8)(BX*8)
	XORQ      AX, AX

next:
	TESTQ CX, CX
	JNZ   block
	VZEROUPPER
	RET
