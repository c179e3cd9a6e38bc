#include "textflag.h"

// The AVX2 element-wise kernels (see elementwise.go and elementwise_amd64.go).
// Every lane runs the scalar loop's operations on its own value, in the
// scalar order, one rounding per operation: a lane is an element (the slice
// kernels, four columns at a time) or a row (the four-row reductions, one
// column at a time, each lane adding its row's elements in ascending j from
// the scalar start). VDIVPD and VSQRTPD round correctly, as DIVSD and SQRTSD
// do. The one VFMADD is in EXP, which copies math.Exp's own instructions.
//
// Register use in the slice kernels: AX the element index, CX the count they
// cover (len&^3, returned), BX the lane masks of TANH and expSubAVX2.

// The constant table ·vconst (elementwise_amd64.go), one Y register a row.
#define LOG2E ·vconst+0(SB)
#define LN2U ·vconst+32(SB)
#define LN2L ·vconst+64(SB)
#define SIXTEENTH ·vconst+96(SB)
#define T8 ·vconst+128(SB)
#define T7 ·vconst+160(SB)
#define T6 ·vconst+192(SB)
#define T5 ·vconst+224(SB)
#define T4 ·vconst+256(SB)
#define T3 ·vconst+288(SB)
#define HALF ·vconst+320(SB)
#define ONE ·vconst+352(SB)
#define TWO ·vconst+384(SB)
#define BIAS ·vconst+416(SB)
#define EXPLO ·vconst+448(SB)
#define EXPHI ·vconst+480(SB)
#define NEGINF ·vconst+512(SB)
#define ABSMASK ·vconst+544(SB)
#define SIGNBIT ·vconst+576(SB)
#define TANHCUT ·vconst+608(SB)
#define TANHSAT ·vconst+640(SB)
#define TP0 ·vconst+672(SB)
#define TP1 ·vconst+704(SB)
#define TP2 ·vconst+736(SB)
#define TQ0 ·vconst+768(SB)
#define TQ1 ·vconst+800(SB)
#define TQ2 ·vconst+832(SB)
#define GELUK ·vconst+864(SB)
#define GELUC ·vconst+896(SB)
#define GELUC3 ·vconst+928(SB)

// The VCMPPD predicates, all ordered (false when a lane is NaN) and quiet.
#define EQ $0x00
#define LT $0x11
#define GE $0x1d
#define GT $0x1e

// EXP sets x to exp(x) lane by lane with math.archExp's instructions
// (math/exp_amd64.s) for a lane in [expLo, expHi), where archExp takes none
// of its exits: e = round(x·log₂e) by CVTSD2SL's rounding, x reduced by
// e·ln2 in two parts and by 1/16, a degree-8 Taylor polynomial, four
// squarings, and the scaling by 2^e. The branch is the one math.Exp takes —
// the fused one when expFMA (math's useFMA) is set — so the fused
// multiply-adds here are math.Exp's, not a contraction of a scalar loop. f,
// e (as ex and ey) and p are scratch; a lane outside the range gets garbage.
#define EXP(x, f, ex, ey, p, nofma, scaled) \
	VMULPD       LOG2E, x, f; \
	VCVTPD2DQY   f, ex; \
	VCVTDQ2PD    ex, f; \
	CMPB         ·expFMA(SB), $1; \
	JNE          nofma; \
	VFNMADD231PD LN2U, f, x; \
	VFNMADD231PD LN2L, f, x; \
	VMULPD       SIXTEENTH, x, x; \
	VMOVUPD      T8, p; \
	VFMADD213PD  T7, x, p; \
	VFMADD213PD  T6, x, p; \
	VFMADD213PD  T5, x, p; \
	VFMADD213PD  T4, x, p; \
	VFMADD213PD  T3, x, p; \
	VFMADD213PD  HALF, x, p; \
	VFMADD213PD  ONE, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VFMADD213PD  ONE, p, x; \
	JMP          scaled; \
nofma: \
	VMULPD       LN2U, f, p; \
	VSUBPD       p, x, x; \
	VMULPD       LN2L, f, p; \
	VSUBPD       p, x, x; \
	VMULPD       SIXTEENTH, x, x; \
	VMULPD       T8, x, p; \
	VADDPD       T7, p, p; \
	VMULPD       x, p, p; \
	VADDPD       T6, p, p; \
	VMULPD       x, p, p; \
	VADDPD       T5, p, p; \
	VMULPD       x, p, p; \
	VADDPD       T4, p, p; \
	VMULPD       x, p, p; \
	VADDPD       T3, p, p; \
	VMULPD       x, p, p; \
	VADDPD       HALF, p, p; \
	VMULPD       x, p, p; \
	VADDPD       ONE, p, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       ONE, x, x; \
scaled: \
	VPMOVSXDQ    ex, ey; \
	VPADDQ       BIAS, ey, ey; \
	VPSLLQ       $52, ey, ey; \
	VMULPD       ey, x, x

// TANH sets r to math.tanh(x) lane by lane, x kept. Every lane takes the
// |x| < 0.625 branch, x + x·s·P(s)/Q(s) with s = x²; if any lane has
// |x| ≥ 0.625 the other branch, 1 − 2/(exp(2|x|)+1) with x's sign, is
// computed too and blended into those lanes (its exp argument is in
// [1.25, 88.03], inside EXP's range), then the saturation to ±1 past
// ½·log(2¹²⁷). A lane with x = ±0 returns x. z, s, p, q, m, e (as ex and
// ey) and BX are scratch.
#define TANH(x, r, z, s, p, q, m, ex, ey, nofma, scaled, small) \
	VANDPD    ABSMASK, x, z; \
	VMULPD    x, x, s; \
	VMULPD    TP0, s, p; \
	VADDPD    TP1, p, p; \
	VMULPD    s, p, p; \
	VADDPD    TP2, p, p; \
	VADDPD    TQ0, s, q; \
	VMULPD    s, q, q; \
	VADDPD    TQ1, q, q; \
	VMULPD    s, q, q; \
	VADDPD    TQ2, q, q; \
	VMULPD    s, x, r; \
	VMULPD    p, r, r; \
	VDIVPD    q, r, r; \
	VADDPD    x, r, r; \
	VCMPPD    GE, TANHCUT, z, m; \
	VMOVMSKPD m, BX; \
	TESTL     BX, BX; \
	JZ        small; \
	VADDPD    z, z, s; \
	EXP(s, p, ex, ey, q, nofma, scaled); \
	VADDPD    ONE, s, s; \
	VMOVUPD   TWO, p; \
	VDIVPD    s, p, p; \
	VMOVUPD   ONE, q; \
	VSUBPD    p, q, q; \
	VANDPD    SIGNBIT, x, p; \
	VXORPD    p, q, q; \
	VBLENDVPD m, q, r, r; \
	VCMPPD    GT, TANHSAT, z, m; \
	VANDPD    SIGNBIT, x, p; \
	VORPD     ONE, p, p; \
	VBLENDVPD m, p, r, r; \
small: \
	VXORPD    p, p, p; \
	VCMPPD    EQ, p, x, m; \
	VBLENDVPD m, x, r, r

// GELUINNER sets y to √(2/π)·(v + ((0.044715·v)·v)·v).
#define GELUINNER(v, y) \
	VMULPD GELUC, v, y; \
	VMULPD v, y, y; \
	VMULPD v, y, y; \
	VADDPD y, v, y; \
	VMULPD GELUK, y, y

// GATHER loads element AX of the four rows at r0..r3 into the lanes of y
// (x is its low half, t a scratch X register).
#define GATHER(r0, r1, r2, r3, x, y, t) \
	VMOVSD      (r0)(AX*8), x; \
	VMOVHPD     (r1)(AX*8), x, x; \
	VMOVSD      (r2)(AX*8), t; \
	VMOVHPD     (r3)(AX*8), t, t; \
	VINSERTF128 $1, t, y, y

// ROWS sets R10..R13 to the four rows from p on, ld values apart, and CX to
// n; AX starts at 0.
#define ROWS \
	MOVQ p+8(FP), R10; \
	MOVQ ld+16(FP), DX; \
	SHLQ $3, DX; \
	LEAQ (R10)(DX*1), R11; \
	LEAQ (R11)(DX*1), R12; \
	LEAQ (R12)(DX*1), R13; \
	MOVQ n+24(FP), CX; \
	XORQ AX, AX

// func addAVX2(dst, a, b []float64) int
TEXT ·addAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	ANDQ $-4, CX
	MOVQ CX, ret+72(FP)
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func scaleAVX2(dst []float64, s float64) int
TEXT ·scaleAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y1
	ANDQ         $-4, CX
	MOVQ         CX, ret+32(FP)
	XORQ         AX, AX
	JMP          test

loop:
	VMULPD  (DI)(AX*8), Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func adamAVX2(w, grad, m, v []float64, k *[9]float64) int
//
// Per lane: g *= inv; m = β₁m + (1−β₁)g; v = β₂v + ((1−β₂)g)g;
// w −= (lr·(m/c1)) / (√(v/c2) + eps); g = 0.
TEXT ·adamAVX2(SB), NOSPLIT, $0-112
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         grad_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	MOVQ         k+96(FP), DX
	VBROADCASTSD 0(DX), Y7
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 16(DX), Y9
	VBROADCASTSD 24(DX), Y10
	VBROADCASTSD 32(DX), Y11
	VBROADCASTSD 40(DX), Y12
	VBROADCASTSD 48(DX), Y13
	VBROADCASTSD 56(DX), Y14
	VBROADCASTSD 64(DX), Y15
	VXORPD       Y6, Y6, Y6
	ANDQ         $-4, CX
	MOVQ         CX, ret+104(FP)
	XORQ         AX, AX
	JMP          test

loop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y7, Y0, Y0
	VMOVUPD (R8)(AX*8), Y1
	VMULPD  Y8, Y1, Y1
	VMULPD  Y9, Y0, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y3
	VMULPD  Y10, Y3, Y3
	VMULPD  Y11, Y0, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)(AX*8)
	VDIVPD  Y12, Y1, Y1
	VDIVPD  Y13, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VMULPD  Y14, Y1, Y1
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func layerNormRowAVX2(y, xh, x, gain, b []float64, mean, rstd float64) int
//
// Per lane: xh = (x − mean)·rstd; y = xh·g + b.
TEXT ·layerNormRowAVX2(SB), NOSPLIT, $0-144
	MOVQ         y_base+0(FP), DI
	MOVQ         xh_base+24(FP), SI
	MOVQ         x_base+48(FP), DX
	MOVQ         x_len+56(FP), CX
	MOVQ         gain_base+72(FP), R8
	MOVQ         b_base+96(FP), R9
	VBROADCASTSD mean+120(FP), Y14
	VBROADCASTSD rstd+128(FP), Y15
	ANDQ         $-4, CX
	MOVQ         CX, ret+136(FP)
	XORQ         AX, AX
	JMP          test

loop:
	VMOVUPD (DX)(AX*8), Y0
	VSUBPD  Y14, Y0, Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)
	VMULPD  (R8)(AX*8), Y0, Y0
	VADDPD  (R9)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func layerNormBackRowAVX2(dx, dy, xh, gain, gg, gb []float64, c *[4]float64) int
//
// Per lane, c = {sumDy/n, sumDyXh, n, rstd}: gg += dy·xh; gb += dy;
// dx = ((dy·g − c0) − (xh·c1)/c2)·c3.
TEXT ·layerNormBackRowAVX2(SB), NOSPLIT, $0-160
	MOVQ         dx_base+0(FP), DI
	MOVQ         dy_base+24(FP), SI
	MOVQ         dy_len+32(FP), CX
	MOVQ         xh_base+48(FP), R8
	MOVQ         gain_base+72(FP), R9
	MOVQ         gg_base+96(FP), R10
	MOVQ         gb_base+120(FP), R11
	MOVQ         c+144(FP), DX
	VBROADCASTSD 0(DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	ANDQ         $-4, CX
	MOVQ         CX, ret+152(FP)
	XORQ         AX, AX
	JMP          test

loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (R8)(AX*8), Y1
	VMULPD  Y1, Y0, Y2
	VADDPD  (R10)(AX*8), Y2, Y2
	VMOVUPD Y2, (R10)(AX*8)
	VADDPD  (R11)(AX*8), Y0, Y3
	VMOVUPD Y3, (R11)(AX*8)
	VMULPD  (R9)(AX*8), Y0, Y4
	VSUBPD  Y12, Y4, Y4
	VMULPD  Y13, Y1, Y5
	VDIVPD  Y14, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y15, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func geluAVX2(dst, x []float64) int
//
// Per lane: (½v)·(1 + tanh(GELUINNER(v))).
TEXT ·geluAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-4, CX
	MOVQ CX, ret+48(FP)
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y8
	GELUINNER(Y8, Y0)
	TANH(Y0, Y1, Y2, Y3, Y4, Y5, Y6, X7, Y7, nofma, scaled, small)
	VADDPD  ONE, Y1, Y1
	VMULPD  HALF, Y8, Y2
	VMULPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func geluBackAVX2(dx, x, dy []float64) int
//
// Per lane, t = tanh(GELUINNER(v)) and d = √(2/π)·(1 + ((3·0.044715)·v)·v):
// dx = dy·(½(1+t) + ((½v)·(1 − t·t))·d).
TEXT ·geluBackAVX2(SB), NOSPLIT, $0-80
	MOVQ dx_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ dy_base+48(FP), DX
	ANDQ $-4, CX
	MOVQ CX, ret+72(FP)
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y8
	GELUINNER(Y8, Y0)
	TANH(Y0, Y1, Y2, Y3, Y4, Y5, Y6, X7, Y7, nofma, scaled, small)
	VMULPD  GELUC3, Y8, Y2
	VMULPD  Y8, Y2, Y2
	VADDPD  ONE, Y2, Y2
	VMULPD  GELUK, Y2, Y2
	VADDPD  ONE, Y1, Y3
	VMULPD  HALF, Y3, Y3
	VMULPD  Y1, Y1, Y4
	VMOVUPD ONE, Y5
	VSUBPD  Y4, Y5, Y5
	VMULPD  HALF, Y8, Y6
	VMULPD  Y5, Y6, Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y6, Y3, Y3
	VMULPD  (DX)(AX*8), Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func tanhAVX2(dst, x []float64) int
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-4, CX
	MOVQ CX, ret+48(FP)
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y0
	TANH(Y0, Y1, Y2, Y3, Y4, Y5, Y6, X7, Y7, nofma, scaled, small)
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func expSubAVX2(dst, src []float64, sub float64) int
//
// Per lane: x = src − sub, then EXP, or +0 for x = −Inf. It stops before a
// group of four with a lane neither in [expLo, expHi) nor −Inf and returns
// how many it did; math.Exp does that group.
TEXT ·expSubAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD sub+48(FP), Y9
	ANDQ         $-4, CX
	XORQ         AX, AX
	JMP          test

loop:
	VMOVUPD   (SI)(AX*8), Y0
	VSUBPD    Y9, Y0, Y0
	VCMPPD    GE, EXPLO, Y0, Y1
	VCMPPD    LT, EXPHI, Y0, Y2
	VANDPD    Y2, Y1, Y1
	VCMPPD    EQ, NEGINF, Y0, Y2
	VORPD     Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       done
	EXP(Y0, Y3, X4, Y4, Y5, nofma, scaled)
	VANDNPD   Y0, Y2, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX

test:
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func rowSums4AVX2(out *[4]float64, p *float64, ld, n int)
TEXT ·rowSums4AVX2(SB), NOSPLIT, $0-32
	ROWS
	VXORPD Y2, Y2, Y2
	JMP    test

loop:
	GATHER(R10, R11, R12, R13, X0, Y0, X1)
	VADDPD Y0, Y2, Y2
	INCQ   AX

test:
	CMPQ    AX, CX
	JLT     loop
	MOVQ    out+0(FP), DI
	VMOVUPD Y2, (DI)
	VZEROUPPER
	RET

// func rowSqDevs4AVX2(out *[4]float64, p *float64, ld, n int, mean *[4]float64)
TEXT ·rowSqDevs4AVX2(SB), NOSPLIT, $0-40
	ROWS
	MOVQ    mean+32(FP), R8
	VMOVUPD (R8), Y3
	VXORPD  Y2, Y2, Y2
	JMP     test

loop:
	GATHER(R10, R11, R12, R13, X0, Y0, X1)
	VSUBPD Y3, Y0, Y0
	VMULPD Y0, Y0, Y0
	VADDPD Y0, Y2, Y2
	INCQ   AX

test:
	CMPQ    AX, CX
	JLT     loop
	MOVQ    out+0(FP), DI
	VMOVUPD Y2, (DI)
	VZEROUPPER
	RET

// func rowMaxes4AVX2(out *[4]float64, p *float64, ld, n int)
//
// VMAXPD's result is its first source if that is greater and its second
// otherwise — NaN in either, or equal values, give the second. With v first
// and the running max second that is the scalar `if v > max { max = v }`:
// a NaN never becomes the max and the first of equal values stays.
TEXT ·rowMaxes4AVX2(SB), NOSPLIT, $0-32
	ROWS
	MOVQ    out+0(FP), DI
	VMOVUPD (DI), Y2
	JMP     test

loop:
	GATHER(R10, R11, R12, R13, X0, Y0, X1)
	VMAXPD Y2, Y0, Y2
	INCQ   AX

test:
	CMPQ    AX, CX
	JLT     loop
	VMOVUPD Y2, (DI)
	VZEROUPPER
	RET

// func layerNormSums4AVX2(out *[8]float64, dy, xh *float64, ld, n int, gain *float64)
//
// Per row lane, over j ascending: t = dy·g[j]; out[r] += t; out[4+r] += t·xh.
TEXT ·layerNormSums4AVX2(SB), NOSPLIT, $0-48
	MOVQ   dy+8(FP), R10
	MOVQ   xh+16(FP), SI
	MOVQ   ld+24(FP), DX
	SHLQ   $3, DX
	LEAQ   (R10)(DX*1), R11
	LEAQ   (R11)(DX*1), R12
	LEAQ   (R12)(DX*1), R13
	LEAQ   (SI)(DX*1), DI
	LEAQ   (DI)(DX*1), R8
	LEAQ   (R8)(DX*1), R9
	MOVQ   n+32(FP), CX
	MOVQ   gain+40(FP), R14
	XORQ   AX, AX
	VXORPD Y2, Y2, Y2
	VXORPD Y5, Y5, Y5
	JMP    test

loop:
	GATHER(R10, R11, R12, R13, X0, Y0, X1)
	VBROADCASTSD (R14)(AX*8), Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y0, Y2, Y2
	GATHER(SI, DI, R8, R9, X3, Y3, X4)
	VMULPD       Y3, Y0, Y0
	VADDPD       Y0, Y5, Y5
	INCQ         AX

test:
	CMPQ    AX, CX
	JLT     loop
	MOVQ    out+0(FP), DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y5, 32(DX)
	VZEROUPPER
	RET
