#include "textflag.h"

// The AVX2 micro-kernel behind the three products (see kernel_amd64.go). One
// call computes a 4-row block of dst across `tiles` tiles of 8 columns; each
// tile keeps its 4×8 outputs in Y0–Y7 across the whole inner dimension:
//
//	Y0:Y1 row 0   Y2:Y3 row 1   Y4:Y5 row 2   Y6:Y7 row 3
//	Y8:Y9 the b row of the current k   Y10 the broadcast a factor   Y11 a product
//
// Lane j of an accumulator holds one output element and sees, in ascending
// k, one VMULPD (a rounded product) and one VADDPD (a rounded sum): exactly
// the scalar o[j] += a*b[j]. There is no VFMADD: a fused multiply-add rounds
// once where the scalar loop rounds twice.
//
// Register use: DI dst tile, DX ldd, SI a, R8 si, AX 3·si, R9 sk, BX b tile,
// R10 ldb, R11 b row, R14 a column, CX k left (3·ldd while a tile is loaded
// or stored), R13 tiles left, R12 the zero-skip state, X15 +0. Strides are in
// bytes.

// STARTACC starts the accumulators of the tile at DI: from +0, or, when the
// load argument is set, from the partial sums dst already holds. STOREACC
// writes them back.
#define STARTACC \
	CMPQ    load+80(FP), $0; \
	JNE     loadacc; \
	VXORPD  Y0, Y0, Y0; \
	VXORPD  Y1, Y1, Y1; \
	VXORPD  Y2, Y2, Y2; \
	VXORPD  Y3, Y3, Y3; \
	VXORPD  Y4, Y4, Y4; \
	VXORPD  Y5, Y5, Y5; \
	VXORPD  Y6, Y6, Y6; \
	VXORPD  Y7, Y7, Y7; \
	JMP     started; \
loadacc: \
	LEAQ    (DX)(DX*2), CX; \
	VMOVUPD (DI), Y0; \
	VMOVUPD 32(DI), Y1; \
	VMOVUPD (DI)(DX*1), Y2; \
	VMOVUPD 32(DI)(DX*1), Y3; \
	VMOVUPD (DI)(DX*2), Y4; \
	VMOVUPD 32(DI)(DX*2), Y5; \
	VMOVUPD (DI)(CX*1), Y6; \
	VMOVUPD 32(DI)(CX*1), Y7; \
started:

#define STOREACC \
	LEAQ    (DX)(DX*2), CX; \
	VMOVUPD Y0, (DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, (DI)(DX*1); \
	VMOVUPD Y3, 32(DI)(DX*1); \
	VMOVUPD Y4, (DI)(DX*2); \
	VMOVUPD Y5, 32(DI)(DX*2); \
	VMOVUPD Y6, (DI)(CX*1); \
	VMOVUPD Y7, 32(DI)(CX*1)

// ROW adds the a factor at addr times the b row in Y8:Y9 to lo:hi.
#define ROW(addr, lo, hi) \
	VBROADCASTSD addr, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, lo, lo; \
	VMULPD       Y9, Y10, Y11; \
	VADDPD       Y11, hi, hi

// CHECKED is ROW under the zero-skip contract: VUCOMISD against +0 sets ZF
// for a ±0 factor and also for an unordered (NaN) one; the out-of-line
// zero block tells the two apart by the parity flag, which only the
// unordered case sets, and sends NaN back to form its product.
#define CHECKED(addr, lo, hi, zero, do, next) \
	VUCOMISD addr, X15; \
	JEQ      zero; \
do: \
	ROW(addr, lo, hi); \
next:

// ZERO is CHECKED's out-of-line block: a factor that compared equal to +0
// is skipped unless it is NaN, and the block is marked as holding a zero.
#define ZERO(zero, do, next) \
zero: \
	JPS  do; \
	MOVQ $2, R12; \
	JMP  next

// func mulTilesAVX2(dst *float64, ldd uintptr, a *float64, si, sk uintptr, b *float64, ldb, bstep uintptr, k, tiles, load, skip int)
//
// With skip set the kernel honours the zero-skip contract, testing every
// factor, until one tile has gone by without a ±0 factor: the a block is then
// known to hold none, and the remaining tiles run without the tests. R12 is
// 0 (no tests), 1 (testing, no zero seen) or 2 (testing, a zero seen).
TEXT ·mulTilesAVX2(SB), NOSPLIT, $0-96
	MOVQ   dst+0(FP), DI
	MOVQ   ldd+8(FP), DX
	MOVQ   a+16(FP), SI
	MOVQ   si+24(FP), R8
	MOVQ   sk+32(FP), R9
	MOVQ   b+40(FP), BX
	MOVQ   ldb+48(FP), R10
	MOVQ   tiles+72(FP), R13
	MOVQ   skip+88(FP), R12
	LEAQ   (R8)(R8*2), AX
	VXORPD X15, X15, X15
	TESTQ  R13, R13
	JZ     done

tile:
	STARTACC
	MOVQ  SI, R14
	MOVQ  BX, R11
	MOVQ  k+64(FP), CX
	TESTQ CX, CX
	JZ    store
	TESTQ R12, R12
	JNZ   checked

dense:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	ROW((R14), Y0, Y1)
	ROW((R14)(R8*1), Y2, Y3)
	ROW((R14)(R8*2), Y4, Y5)
	ROW((R14)(AX*1), Y6, Y7)
	ADDQ    R9, R14
	ADDQ    R10, R11
	DECQ    CX
	JNZ     dense
	JMP     store

checked:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	CHECKED((R14), Y0, Y1, zero0, do0, next0)
	CHECKED((R14)(R8*1), Y2, Y3, zero1, do1, next1)
	CHECKED((R14)(R8*2), Y4, Y5, zero2, do2, next2)
	CHECKED((R14)(AX*1), Y6, Y7, zero3, do3, next3)
	ADDQ    R9, R14
	ADDQ    R10, R11
	DECQ    CX
	JNZ     checked
	ANDQ    $2, R12 // a tile without a zero turns the tests off

store:
	STOREACC
	ADDQ $64, DI
	ADDQ bstep+56(FP), BX
	DECQ R13
	JNZ  tile

done:
	VZEROUPPER
	RET

	ZERO(zero0, do0, next0)
	ZERO(zero1, do1, next1)
	ZERO(zero2, do2, next2)
	ZERO(zero3, do3, next3)
