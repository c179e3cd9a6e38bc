package tensor

// The vector path of the three products, for amd64 CPUs with AVX2 or
// AVX-512F. It covers the largest block of dst whose rows are a multiple of 4
// and whose columns are a multiple of 8, in 4-row tiles: at avx512, 16-column
// tiles up to the last multiple of 16 and one 8-column tile for the 8 columns
// left over, if any; at avx2, 8-column tiles throughout. The portable loops in
// tensor.go compute the rest. Each output element is still one chain of
// products added in ascending k from +0 (see kernel_amd64.s), so the paths
// agree bit for bit and any of them may compute any element.

// mulTilesAVX2 sets, for each of tiles column tiles, the 4×8 block of dst
// the tile covers to the product of a 4-row block of A and a k-row block of b,
// added to what the block holds if load is set:
// dst[r][8t+j] (+)= Σₖ A(r,k)·b[k][8t+j] with A(r,k) at a + r·si + k·sk and
// b[k][8t+j] at b + t·bstep + k·ldb + 8j. Strides are in bytes; dst rows are
// ldd bytes apart. With skip set it keeps the zero-skip contract.
//
//go:noescape
func mulTilesAVX2(dst *float64, ldd uintptr, a *float64, si, sk uintptr, b *float64, ldb, bstep uintptr, k, tiles, load, skip int)

// mulTilesAVX512 is mulTilesAVX2 with 4×16 tiles: dst[r][16t+j], j < 16.
//
//go:noescape
func mulTilesAVX512(dst *float64, ldd uintptr, a *float64, si, sk uintptr, b *float64, ldb, bstep uintptr, k, tiles, load, skip int)

// mulTiles runs the tile kernel w columns wide, 16 or 8.
func mulTiles(w int, dst *float64, ldd uintptr, a *float64, si, sk uintptr, b *float64, ldb, bstep uintptr, k, tiles, load, skip int) {
	if w == 16 {
		mulTilesAVX512(dst, ldd, a, si, sk, b, ldb, bstep, k, tiles, load, skip)
	} else {
		mulTilesAVX2(dst, ldd, a, si, sk, b, ldb, bstep, k, tiles, load, skip)
	}
}

// A span is a run of column tiles w wide over columns [j0, j1).
type span struct{ w, j0, j1 int }

// tileSpans returns the tiles of an n-column product at the current level,
// widest first; either span may be empty.
func tileSpans(n int) [2]span {
	j8 := 0 // where the 8-column tiles start
	if level == levelAVX512 {
		j8 = n &^ 15
	}
	return [2]span{{16, 0, j8}, {8, j8, n &^ 7}}
}

// mulAccTiles computes rows [0, rows) × columns [0, cols) of mulAcc's product
// and reports the block it covered.
func mulAccTiles(dst *Mat, ad []float64, si, sk int, b *Mat, tri triangle) (rows, cols int) {
	n, inner := b.Cols, b.Rows
	rows, cols = dst.Rows&^3, n&^7
	if rows == 0 || cols == 0 || inner == 0 {
		return 0, 0
	}
	spans := tileSpans(n)
	for i := 0; i < rows; i += 4 {
		k0, k1 := tri.span(i, 4, inner)
		terms := k1 - k0
		if terms == 0 {
			k0 = 0 // the tiles are only cleared
		}
		for _, s := range spans {
			if s.j1 > s.j0 {
				mulTiles(s.w, &dst.Data[i*n+s.j0], uintptr(n*8), &ad[i*si+k0*sk], uintptr(si*8), uintptr(sk*8),
					&b.Data[k0*n+s.j0], uintptr(n*8), uintptr(s.w*8), terms, (s.j1-s.j0)/s.w, 0, 1)
			}
		}
	}
	return rows, cols
}

// panelLen is the stack buffer MatMulT packs b into: k-major panels of 16 or
// 8 columns, 16 KiB.
const panelLen = 2048

// matMulTTiles computes rows [0, rows) × columns [0, cols) of a·bᵀ — or, if
// lower, the tiles of that block that reach its lower triangle — and reports
// the block it covered. The tile kernels want b k-major, so b's rows are
// packed, a tile's width at a time, into panels on the stack; a panel holds
// at most panelLen/w values of k (128 at 16 columns, 256 at 8), and a longer
// inner dimension is done in chunks whose partial sums wait in dst — a
// float64 stored and reloaded is the same float64, so the chain goes on
// exactly where it stopped.
func matMulTTiles(dst, a, b *Mat, lower bool) (rows, cols int) {
	inner, n := a.Cols, b.Rows
	rows, cols = a.Rows&^3, n&^7
	if rows == 0 || cols == 0 || inner == 0 {
		return 0, 0
	}
	var panel [panelLen]float64
	for _, s := range tileSpans(n) {
		w, tiles := s.w, (s.j1-s.j0)/s.w
		if tiles == 0 {
			continue
		}
		for k0 := 0; k0 < inner; k0 += panelLen / w {
			kc := min(inner-k0, panelLen/w)
			group := panelLen / (w * kc) // panels per packing
			load := 0
			if k0 > 0 {
				load = 1
			}
			for t0 := 0; t0 < tiles; t0 += group {
				g, j := min(group, tiles-t0), s.j0+w*t0 // the group's panels and first column
				for t := 0; t < g; t++ {
					packPanel(panel[t*w*kc:(t+1)*w*kc], b.Data[(j+w*t)*inner+k0:], inner, kc, w)
				}
				for i := 0; i < rows; i += 4 {
					reach := g
					if lower {
						reach = min(g, (i+3-j+w)/w) // the tiles holding a column ≤ i+3
					}
					if reach > 0 {
						mulTiles(w, &dst.Data[i*n+j], uintptr(n*8), &a.Data[i*inner+k0], uintptr(inner*8), 8,
							&panel[0], uintptr(w*8), uintptr(kc*w*8), kc, reach, load, 0)
					}
				}
			}
		}
	}
	return rows, cols
}

// packPanel writes k values of w rows of b (w is 16 or 8), rows inner values
// apart from bd on, k-major into p: p[w·kk+jj] = bd[jj·inner+kk]. Both
// widths are unrolled, so each k's w values are written together.
func packPanel(p, bd []float64, inner, k, w int) {
	r0, r1, r2, r3 := bd[:k], bd[inner:][:k], bd[2*inner:][:k], bd[3*inner:][:k]
	r4, r5, r6, r7 := bd[4*inner:][:k], bd[5*inner:][:k], bd[6*inner:][:k], bd[7*inner:][:k]
	if w == 16 {
		r8, r9, r10, r11 := bd[8*inner:][:k], bd[9*inner:][:k], bd[10*inner:][:k], bd[11*inner:][:k]
		r12, r13, r14, r15 := bd[12*inner:][:k], bd[13*inner:][:k], bd[14*inner:][:k], bd[15*inner:][:k]
		p = p[:16*k]
		for kk := range r0 {
			q := p[16*kk : 16*kk+16]
			q[0], q[1], q[2], q[3] = r0[kk], r1[kk], r2[kk], r3[kk]
			q[4], q[5], q[6], q[7] = r4[kk], r5[kk], r6[kk], r7[kk]
			q[8], q[9], q[10], q[11] = r8[kk], r9[kk], r10[kk], r11[kk]
			q[12], q[13], q[14], q[15] = r12[kk], r13[kk], r14[kk], r15[kk]
		}
		return
	}
	p = p[:8*k]
	for kk := range r0 {
		q := p[8*kk : 8*kk+8]
		q[0], q[1], q[2], q[3] = r0[kk], r1[kk], r2[kk], r3[kk]
		q[4], q[5], q[6], q[7] = r4[kk], r5[kk], r6[kk], r7[kk]
	}
}
