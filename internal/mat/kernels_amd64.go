package mat

import "sync"

// AVX2 micro-kernels (kernels_amd64.s) behind the matmul entry points. They
// are bitwise equal to the pure-Go kernels: every output element takes the
// same rounded multiplies and rounded adds in the same order, each SIMD lane
// doing what the scalar loop does for its column, and no kernel uses FMA.
// The wrappers keep every shape check in Go and slice each operand to
// exactly the extent the assembly reads, so bounds are checked before the
// call; the race detector does not see accesses made inside assembly.

// useAVX2 selects the assembly kernels. It is set once at package init from
// CPUID/XGETBV; there is no knob. Tests flip it to run both paths.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// accumRowAVX2 computes d += Σ c[k*stride]·b[k*len(d):(k+1)*len(d)] for k in
// [0, k), skipping ±0 coefficients like accumRowGo. k must be at least 1.
//
//go:noescape
func accumRowAVX2(d, c []float64, stride int, b []float64, k int)

// mulTransBTileAVX2 computes the 8×4 tile d[r][c] = Σ_k pa[8k+r]·bc[k]
// of a·bᵀ, with pa the tile's 8 rows of a packed k-major and b0..b3 its
// four rows of b, and stores rows [0, rows) at row stride ldd. len(b0)
// must be at least 1.
//
//go:noescape
func mulTransBTileAVX2(d []float64, ldd, rows int, pa, b0, b1, b2, b3 []float64)

// mulRow32AVX2 computes d += a·b for a len(a)×len(d) row-major b, with
// mulRow32Go's per-element association.
//
//go:noescape
func mulRow32AVX2(d, a, b []float32)

// accumRow computes d += Σ_k c[k*stride]·b.Row(k) over the nonzero
// coefficients; see accumRowGo.
func accumRow(d, c []float64, stride int, b *Matrix) {
	if !useAVX2 {
		accumRowGo(d, c, stride, b)
		return
	}
	k, n := b.Rows, b.Cols
	if k == 0 || n == 0 {
		return
	}
	accumRowAVX2(d[:n], c[:(k-1)*stride+1], stride, b.Data[:k*n], k)
}

// packPool holds the k-major buffers mulTransBRows packs rows of a into.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// mulTransBRows computes dst rows [lo, hi) of a·bᵀ. The AVX2 path packs
// eight rows of a k-major (zero rows pad a short block) and computes 8×4
// output tiles, one lane per row and one accumulator per column, with a
// broadcast of b[j][k]: every output element starts from +0 and adds
// a[i][k]·b[j][k] in ascending k with no zero skip, as mulTransBRowsGo's
// dot products do. A last tile narrower than four columns repeats the last
// row of b and goes through a scratch tile, of which only the real
// columns are copied out.
func mulTransBRows(dst, a, b *Matrix, lo, hi int) {
	kc, n := a.Cols, b.Rows
	if !useAVX2 || kc == 0 || n == 0 {
		mulTransBRowsGo(dst, a, b, lo, hi)
		return
	}
	buf := packPool.Get().(*[]float64)
	defer packPool.Put(buf)
	if cap(*buf) < 8*kc {
		*buf = make([]float64, 8*kc)
	}
	pa := (*buf)[:8*kc]
	var scratch [8 * 4]float64
	for i0 := lo; i0 < hi; i0 += 8 {
		rows := min(8, hi-i0)
		for r := 0; r < 8; r++ {
			if r >= rows {
				for k := 0; k < kc; k++ {
					pa[8*k+r] = 0
				}
				continue
			}
			for k, v := range a.Row(i0 + r) {
				pa[8*k+r] = v
			}
		}
		d := dst.Data[i0*n:]
		for j := 0; j < n; j += 4 {
			if j+4 <= n {
				mulTransBTileAVX2(d[j:(rows-1)*n+j+4], n, rows, pa,
					b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
				continue
			}
			row := func(c int) []float64 { return b.Row(min(j+c, n-1)) }
			mulTransBTileAVX2(scratch[:], 4, rows, pa, row(0), row(1), row(2), row(3))
			for r := 0; r < rows; r++ {
				copy(dst.Row(i0 + r)[j:], scratch[4*r:4*r+4])
			}
		}
	}
}

// mulRow32 computes drow += arow·b; see mulRow32Go.
func mulRow32(drow, arow []float32, b *Matrix32) {
	if !useAVX2 {
		mulRow32Go(drow, arow, b)
		return
	}
	k, n := b.Rows, b.Cols
	if k == 0 || n == 0 {
		return
	}
	mulRow32AVX2(drow[:n], arow[:k], b.Data[:k*n])
}
