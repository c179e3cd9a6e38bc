#include "textflag.h"

// The micro-kernels behind the three products (see kernel_amd64.go). One call
// computes a 4-row block of dst across `tiles` column tiles; each tile keeps
// its 4-row outputs in eight accumulators across the whole inner dimension.
// mulTilesAVX2's tiles are 8 columns wide, in Y registers; mulTilesAVX512's
// are 16 wide, in Z registers (AVX-512F instructions only):
//
//	0:1 row 0   2:3 row 1   4:5 row 2   6:7 row 3
//	8:9 the b row of the current k   10 the broadcast a factor   11 a product
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

// STARTACC starts the accumulators of the tile at DI: from +0 (zeroed by
// xor), or, when the load argument is set, from the partial sums dst already
// holds, the second register of a row half bytes on. STOREACC writes them
// back.
#define STARTACC(xor, half, r0, r1, r2, r3, r4, r5, r6, r7) \
	CMPQ    load+80(FP), $0; \
	JNE     loadacc; \
	xor     r0, r0, r0; \
	xor     r1, r1, r1; \
	xor     r2, r2, r2; \
	xor     r3, r3, r3; \
	xor     r4, r4, r4; \
	xor     r5, r5, r5; \
	xor     r6, r6, r6; \
	xor     r7, r7, r7; \
	JMP     started; \
loadacc: \
	LEAQ    (DX)(DX*2), CX; \
	VMOVUPD (DI), r0; \
	VMOVUPD half(DI), r1; \
	VMOVUPD (DI)(DX*1), r2; \
	VMOVUPD half(DI)(DX*1), r3; \
	VMOVUPD (DI)(DX*2), r4; \
	VMOVUPD half(DI)(DX*2), r5; \
	VMOVUPD (DI)(CX*1), r6; \
	VMOVUPD half(DI)(CX*1), r7; \
started:

#define STOREACC(half, r0, r1, r2, r3, r4, r5, r6, r7) \
	LEAQ    (DX)(DX*2), CX; \
	VMOVUPD r0, (DI); \
	VMOVUPD r1, half(DI); \
	VMOVUPD r2, (DI)(DX*1); \
	VMOVUPD r3, half(DI)(DX*1); \
	VMOVUPD r4, (DI)(DX*2); \
	VMOVUPD r5, half(DI)(DX*2); \
	VMOVUPD r6, (DI)(CX*1); \
	VMOVUPD r7, half(DI)(CX*1)

// ROW adds the a factor at addr, broadcast to f, times the b row in b0:b1 to
// lo:hi, with p for the products. YROW and ZROW fix the registers.
#define ROW(addr, lo, hi, b0, b1, f, p) \
	VBROADCASTSD addr, f; \
	VMULPD       b0, f, p; \
	VADDPD       p, lo, lo; \
	VMULPD       b1, f, p; \
	VADDPD       p, hi, hi

#define YROW(addr, lo, hi) ROW(addr, lo, hi, Y8, Y9, Y10, Y11)
#define ZROW(addr, lo, hi) ROW(addr, lo, hi, Z8, Z9, Z10, Z11)

// CHECKED is row (YROW or ZROW) under the zero-skip contract: VUCOMISD
// against +0 sets ZF for a ±0 factor and also for an unordered (NaN) one; the
// out-of-line zero block tells the two apart by the parity flag, which only
// the unordered case sets, and sends NaN back to form its product.
#define CHECKED(row, addr, lo, hi, zero, do, next) \
	VUCOMISD addr, X15; \
	JEQ      zero; \
do: \
	row(addr, lo, hi); \
next:

// ZERO is CHECKED's out-of-line block: a factor that compared equal to +0
// is skipped unless it is NaN, and the block is marked as holding a zero.
#define ZERO(zero, do, next) \
zero: \
	JPS  do; \
	MOVQ $2, R12; \
	JMP  next

// PROLOGUE loads the arguments both kernels share.
#define PROLOGUE \
	MOVQ   dst+0(FP), DI; \
	MOVQ   ldd+8(FP), DX; \
	MOVQ   a+16(FP), SI; \
	MOVQ   si+24(FP), R8; \
	MOVQ   sk+32(FP), R9; \
	MOVQ   b+40(FP), BX; \
	MOVQ   ldb+48(FP), R10; \
	MOVQ   tiles+72(FP), R13; \
	MOVQ   skip+88(FP), R12; \
	LEAQ   (R8)(R8*2), AX; \
	VXORPD X15, X15, X15

// func mulTilesAVX2(dst *float64, ldd uintptr, a *float64, si, sk uintptr, b *float64, ldb, bstep uintptr, k, tiles, load, skip int)
//
// With skip set the kernel honours the zero-skip contract, testing every
// factor, until one tile has gone by without a ±0 factor: the a block is then
// known to hold none, and the remaining tiles run without the tests. R12 is
// 0 (no tests), 1 (testing, no zero seen) or 2 (testing, a zero seen).
TEXT ·mulTilesAVX2(SB), NOSPLIT, $0-96
	PROLOGUE
	TESTQ R13, R13
	JZ    done

tile:
	STARTACC(VXORPD, 32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
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
	YROW((R14), Y0, Y1)
	YROW((R14)(R8*1), Y2, Y3)
	YROW((R14)(R8*2), Y4, Y5)
	YROW((R14)(AX*1), Y6, Y7)
	ADDQ    R9, R14
	ADDQ    R10, R11
	DECQ    CX
	JNZ     dense
	JMP     store

checked:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	CHECKED(YROW, (R14), Y0, Y1, zero0, do0, next0)
	CHECKED(YROW, (R14)(R8*1), Y2, Y3, zero1, do1, next1)
	CHECKED(YROW, (R14)(R8*2), Y4, Y5, zero2, do2, next2)
	CHECKED(YROW, (R14)(AX*1), Y6, Y7, zero3, do3, next3)
	ADDQ    R9, R14
	ADDQ    R10, R11
	DECQ    CX
	JNZ     checked
	ANDQ    $2, R12 // a tile without a zero turns the tests off

store:
	STOREACC(32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
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

// func mulTilesAVX512(dst *float64, ldd uintptr, a *float64, si, sk uintptr, b *float64, ldb, bstep uintptr, k, tiles, load, skip int)
//
// mulTilesAVX2 with 16-column tiles: the same walk, the same zero-skip
// states, twice the lanes per instruction. The accumulators are zeroed with
// VPXORQ (VXORPD on Z registers needs AVX-512DQ).
TEXT ·mulTilesAVX512(SB), NOSPLIT, $0-96
	PROLOGUE
	TESTQ R13, R13
	JZ    done

tile:
	STARTACC(VPXORQ, 64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	MOVQ  SI, R14
	MOVQ  BX, R11
	MOVQ  k+64(FP), CX
	TESTQ CX, CX
	JZ    store
	TESTQ R12, R12
	JNZ   checked

dense:
	VMOVUPD (R11), Z8
	VMOVUPD 64(R11), Z9
	ZROW((R14), Z0, Z1)
	ZROW((R14)(R8*1), Z2, Z3)
	ZROW((R14)(R8*2), Z4, Z5)
	ZROW((R14)(AX*1), Z6, Z7)
	ADDQ    R9, R14
	ADDQ    R10, R11
	DECQ    CX
	JNZ     dense
	JMP     store

checked:
	VMOVUPD (R11), Z8
	VMOVUPD 64(R11), Z9
	CHECKED(ZROW, (R14), Z0, Z1, zero0, do0, next0)
	CHECKED(ZROW, (R14)(R8*1), Z2, Z3, zero1, do1, next1)
	CHECKED(ZROW, (R14)(R8*2), Z4, Z5, zero2, do2, next2)
	CHECKED(ZROW, (R14)(AX*1), Z6, Z7, zero3, do3, next3)
	ADDQ    R9, R14
	ADDQ    R10, R11
	DECQ    CX
	JNZ     checked
	ANDQ    $2, R12

store:
	STOREACC(64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ADDQ $128, DI
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
