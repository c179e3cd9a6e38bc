package tensor

// The vector path of the three products, for amd64 CPUs with AVX2. It covers
// the largest block of dst whose rows are a multiple of 4 and whose columns
// are a multiple of 8; the portable loops in tensor.go compute the rest. Each
// output element is still one chain of products added in ascending k from +0
// (see kernel_amd64.s), so the vector path and the portable one agree bit for
// bit and either may compute any element.

// mulTilesAVX2 sets, for each of tiles column tiles, the 4×8 block of dst
// the tile covers to the product of a 4-row block of A and a k-row block of b,
// added to what the block holds if load is set:
// dst[r][8t+j] (+)= Σₖ A(r,k)·b[k][8t+j] with A(r,k) at a + r·si + k·sk and
// b[k][8t+j] at b + t·bstep + k·ldb + 8j. Strides are in bytes; dst rows are
// ldd bytes apart. With skip set it keeps the zero-skip contract.
//
//go:noescape
func mulTilesAVX2(dst *float64, ldd uintptr, a *float64, si, sk uintptr, b *float64, ldb, bstep uintptr, k, tiles, load, skip int)

// mulAccAVX2 computes rows [0, rows) × columns [0, cols) of mulAcc's product
// and reports the block it covered.
func mulAccAVX2(dst *Mat, ad []float64, si, sk int, b *Mat, tri triangle) (rows, cols int) {
	n, inner := b.Cols, b.Rows
	rows, cols = dst.Rows&^3, n&^7
	if rows == 0 || cols == 0 || inner == 0 {
		return 0, 0
	}
	for i := 0; i < rows; i += 4 {
		k0, k1 := tri.span(i, 4, inner)
		terms := k1 - k0
		if terms == 0 {
			k0 = 0 // the tiles are only cleared
		}
		mulTilesAVX2(&dst.Data[i*n], uintptr(n*8), &ad[i*si+k0*sk], uintptr(si*8), uintptr(sk*8),
			&b.Data[k0*n], uintptr(n*8), 64, terms, cols/8, 0, 1)
	}
	return rows, cols
}

// panelLen is the stack buffer MatMulT packs b into: k-major panels of 8
// columns, 16 KiB.
const panelLen = 2048

// matMulTAVX2 computes rows [0, rows) × columns [0, cols) of a·bᵀ — or, if
// lower, the tiles of that block that reach its lower triangle — and reports
// the block it covered. The vector kernel wants b k-major, so b's rows are
// packed, 8 at a time, into panels on the stack; a panel holds at most
// panelLen/8 values of k, and a longer inner dimension is done in chunks whose
// partial sums wait in dst — a float64 stored and reloaded is the same
// float64, so the chain goes on exactly where it stopped.
func matMulTAVX2(dst, a, b *Mat, lower bool) (rows, cols int) {
	inner, n := a.Cols, b.Rows
	rows, cols = a.Rows&^3, n&^7
	if rows == 0 || cols == 0 || inner == 0 {
		return 0, 0
	}
	var panel [panelLen]float64
	for k0 := 0; k0 < inner; k0 += panelLen / 8 {
		kc := min(inner-k0, panelLen/8)
		group := panelLen / (8 * kc) // panels per packing
		for t0 := 0; t0 < cols/8; t0 += group {
			tiles := min(group, cols/8-t0)
			for t := 0; t < tiles; t++ {
				packPanel(panel[t*8*kc:(t+1)*8*kc], b.Data[8*(t0+t)*inner+k0:], inner, kc)
			}
			load := 0
			if k0 > 0 {
				load = 1
			}
			for i := 0; i < rows; i += 4 {
				reach := tiles
				if lower {
					reach = min(tiles, (i+3)/8+1-t0) // the tiles holding a column ≤ i+3
				}
				if reach > 0 {
					mulTilesAVX2(&dst.Data[i*n+8*t0], uintptr(n*8), &a.Data[i*inner+k0], uintptr(inner*8), 8,
						&panel[0], 64, uintptr(kc*64), kc, reach, load, 0)
				}
			}
		}
	}
	return rows, cols
}

// packPanel writes k values of 8 rows of b, rows inner values apart from bd
// on, k-major into p: p[8kk+jj] = bd[jj·inner+kk].
func packPanel(p, bd []float64, inner, k int) {
	r0, r1, r2, r3 := bd[:k], bd[inner:][:k], bd[2*inner:][:k], bd[3*inner:][:k]
	r4, r5, r6, r7 := bd[4*inner:][:k], bd[5*inner:][:k], bd[6*inner:][:k], bd[7*inner:][:k]
	p = p[:8*k]
	for kk := range r0 {
		q := p[8*kk : 8*kk+8]
		q[0], q[1], q[2], q[3] = r0[kk], r1[kk], r2[kk], r3[kk]
		q[4], q[5], q[6], q[7] = r4[kk], r5[kk], r6[kk], r7[kk]
	}
}
