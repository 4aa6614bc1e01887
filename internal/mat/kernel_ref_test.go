package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three functions below are the plain ikj/dot-product matmul loops the
// register-blocked kernels replaced, kept verbatim as frozen references:
// every kernel must match them bit for bit on every input, so trained
// models, stored containers and generated traces keep their exact bytes.
// refMulInto32 freezes the float32 MulInto32 loop the same way.

func refMulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

func refMulTransARows(dst, a, b *Matrix, lo, hi int) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			aki := arow[i]
			if aki == 0 {
				continue
			}
			drow := dst.Row(i)
			for j := range brow {
				drow[j] += aki * brow[j]
			}
		}
	}
}

func refMulTransBRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

func refMulInto32(dst, a, b *Matrix32) {
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)[:n]
		k := 0
		for ; k+4 <= a.Cols; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := b.Row(k)[:n]
			b1 := b.Row(k + 1)[:n]
			b2 := b.Row(k + 2)[:n]
			b3 := b.Row(k + 3)[:n]
			for j := range drow {
				drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < a.Cols; k++ {
			aik := arow[k]
			brow := b.Row(k)[:n]
			for j := range drow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

// The reference runners compute dst = a·b, aᵀ·b and a·bᵀ with the frozen
// loops, serially, zeroing dst first where MulInto and MulTransAInto do.
func mulRef(dst, a, b *Matrix) {
	dst.Zero()
	refMulRows(dst, a, b, 0, a.Rows)
}

func mulTransARef(dst, a, b *Matrix) {
	dst.Zero()
	refMulTransARows(dst, a, b, 0, dst.Rows)
}

func mulTransBRef(dst, a, b *Matrix) { refMulTransBRows(dst, a, b, 0, a.Rows) }

// product runs a kernel into a fresh rows×cols destination.
func product(run func(dst, a, b *Matrix), rows, cols int, a, b *Matrix) *Matrix {
	dst := New(rows, cols)
	run(dst, a, b)
	return dst
}

// sparseMat returns a rows×cols N(0,1) matrix in which each element is
// zeroed with probability zeroFrac. With oneHot set, every row instead
// holds a single 1 at a random column, like an encoded categorical field.
func sparseMat(r *rand.Rand, rows, cols int, zeroFrac float64, oneHot bool) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		if oneHot {
			row[r.Intn(cols)] = 1
			continue
		}
		for j := range row {
			if r.Float64() >= zeroFrac {
				row[j] = r.NormFloat64()
			}
		}
	}
	return m
}

// posInf is a variable so that posInf-posInf is computed at run time and
// yields the CPU's default NaN, the same bits every invalid operation in the
// kernels produces. Planting only that NaN keeps the comparisons exact: an
// add of two different NaN payloads may return either one, depending on
// which operand the compiler makes the first source.
var posInf = math.Inf(1)

// plantSpecials writes ±0, NaN and ±Inf into a few elements of m. A ±0
// coefficient is skipped by MulInto and MulTransAInto (0·Inf would be NaN)
// but not by MulTransBInto; NaN coefficients are applied; both must match
// the reference exactly.
func plantSpecials(r *rand.Rand, m *Matrix) {
	specials := []float64{0, math.Copysign(0, -1), posInf - posInf, posInf, -posInf}
	for n := 0; n < 1+len(m.Data)/50; n++ {
		m.Data[r.Intn(len(m.Data))] = specials[r.Intn(len(specials))]
	}
}

func sameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d (row %d, col %d) = %v (%#x), reference %v (%#x)",
				what, i, i/got.Cols, i%got.Cols, v, math.Float64bits(v),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// forEachKernelPath runs fn once per kernel implementation this machine
// can run: the pure-Go kernels always, and the AVX2 kernels where they were
// selected at init.
func forEachKernelPath(t *testing.T, fn func(t *testing.T)) {
	selected := useAVX2
	t.Cleanup(func() { useAVX2 = selected })
	for _, simd := range []bool{false, true} {
		if simd && !selected {
			continue
		}
		useAVX2 = simd
		t.Run(fmt.Sprintf("avx2=%v", simd), fn)
	}
}

// kernelDims are the inner and row sizes the kernel tests draw from,
// including non-multiples of the four-wide register block. Output widths
// run over every value in [1, maxKernelCols], so every combination of
// 32-, 16-, 8- and 4-wide tiles and scalar tails is hit.
var kernelDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 65, 130}

const maxKernelCols = 67

// TestKernelsMatchFrozenReference checks the three matmul kernels against
// the frozen reference loops with math.Float64bits over many random shapes:
// every output width in [1, 67], 1-row and 1-column operands, sparse and
// one-hot left operands, ±0, NaN and ±Inf planted in both operands, serial
// and forced-parallel dispatch, on every kernel path.
func TestKernelsMatchFrozenReference(t *testing.T) {
	t.Cleanup(func() {
		SetParallelism(1)
		SetParallelThreshold(0)
	})
	forEachKernelPath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(13))
		zeroFracs := []float64{0, 0.3, 0.7, 0.95}
		pick := func() int { return kernelDims[r.Intn(len(kernelDims))] }
		for c := 0; c < 600; c++ {
			m, k, n := pick(), pick(), 1+c%maxKernelCols
			if c < len(kernelDims) {
				m, k = kernelDims[c], kernelDims[len(kernelDims)-1-c] // cover every size
			}
			zf := zeroFracs[c%len(zeroFracs)]
			oneHot := c%9 == 8
			a := sparseMat(r, m, k, zf, oneHot)  // m×k, for MulInto / MulTransBInto
			at := sparseMat(r, k, m, zf, oneHot) // k×m, for MulTransAInto
			b := sparseMat(r, k, n, 0, false)    // k×n
			bt := sparseMat(r, n, k, 0, false)   // n×k, for MulTransBInto
			if c%3 == 0 {
				for _, x := range []*Matrix{a, at, b, bt} {
					plantSpecials(r, x)
				}
			}
			wantMul := product(mulRef, m, n, a, b)
			wantTA := product(mulTransARef, m, n, at, b)
			wantTB := product(mulTransBRef, m, n, a, bt)
			for _, workers := range []int{1, 3} {
				SetParallelism(workers)
				SetParallelThreshold(1) // with 3 workers, dispatch every product
				name := fmt.Sprintf("case %d %dx%dx%d zeros=%.2f onehot=%v workers=%d", c, m, k, n, zf, oneHot, workers)
				sameBits(t, "MulInto "+name, Mul(a, b), wantMul)
				sameBits(t, "MulTransAInto "+name, MulTransA(at, b), wantTA)
				// MulTransBInto overwrites dst without zeroing it first.
				gotTB := New(m, n)
				gotTB.Fill(7)
				MulTransBInto(gotTB, a, bt)
				sameBits(t, "MulTransBInto "+name, gotTB, wantTB)
			}
		}
	})
}

// randMat32 returns a rows×cols N(0,1) float32 matrix with, when special
// is set, a few ±0, NaN and ±Inf elements.
func randMat32(r *rand.Rand, rows, cols int, special bool) *Matrix32 {
	m := New32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	if special {
		inf := float32(posInf)
		specials := []float32{0, float32(math.Copysign(0, -1)), inf - inf, inf, -inf}
		for n := 0; n < 1+len(m.Data)/50; n++ {
			m.Data[r.Intn(len(m.Data))] = specials[r.Intn(len(specials))]
		}
	}
	return m
}

// TestMulInto32MatchesFrozenReference checks MulInto32 against the frozen
// float32 loop with math.Float32bits, on every output width in [1, 67],
// inner sizes with and without leftover k, and ±0, NaN and ±Inf planted in
// both operands, on every kernel path.
func TestMulInto32MatchesFrozenReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(32))
		for c := 0; c < 400; c++ {
			m, k, n := kernelDims[r.Intn(len(kernelDims))], kernelDims[c%len(kernelDims)], 1+c%maxKernelCols
			a, b := randMat32(r, m, k, c%3 == 0), randMat32(r, k, n, c%3 == 0)
			want, got := New32(m, n), New32(m, n)
			refMulInto32(want, a, b)
			MulInto32(got, a, b)
			for i, v := range got.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
					t.Fatalf("case %d %dx%dx%d: element %d = %v (%#x), reference %v (%#x)",
						c, m, k, n, i, v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
				}
			}
		}
	})
}

// TestKernelsEmptyOperands covers products with a zero dimension, where
// the sums are empty and every output element must be +0.
func TestKernelsEmptyOperands(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		for _, sh := range [][3]int{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0}, {1, 0, 1}, {2, 0, 20}} {
			m, k, n := sh[0], sh[1], sh[2]
			a, at := sparseMat(r, m, k, 0, false), sparseMat(r, k, m, 0, false)
			b, bt := sparseMat(r, k, n, 0, false), sparseMat(r, n, k, 0, false)
			name := fmt.Sprintf("%dx%dx%d", m, k, n)
			sameBits(t, "MulInto "+name, Mul(a, b), product(mulRef, m, n, a, b))
			sameBits(t, "MulTransAInto "+name, MulTransA(at, b), product(mulTransARef, m, n, at, b))
			// MulTransBInto writes every element without zeroing first.
			dst := New(m, n)
			dst.Fill(7)
			MulTransBInto(dst, a, bt)
			sameBits(t, "MulTransBInto "+name, dst, product(mulTransBRef, m, n, a, bt))
			a32, b32 := randMat32(r, m, k, false), randMat32(r, k, n, false)
			got32, want32 := New32(m, n), New32(m, n)
			MulInto32(got32, a32, b32)
			refMulInto32(want32, a32, b32)
			for i, v := range got32.Data {
				if math.Float32bits(v) != math.Float32bits(want32.Data[i]) {
					t.Fatalf("MulInto32 %s: element %d = %v, reference %v", name, i, v, want32.Data[i])
				}
			}
		}
	})
}

// TestKernelsZeroSkipUnderInf pins the zero-skip directly: a zero left
// operand next to an infinite right operand contributes nothing, so the
// product stays finite where the naive sum would be NaN.
func TestKernelsZeroSkipUnderInf(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, cols := range []int{6, 21} { // scalar tail only; 16 + 4 + 1
			a := NewFrom(1, 5, []float64{1, 0, 2, 3, math.Copysign(0, -1)})
			b := New(5, cols)
			b.Fill(1)
			for j := range b.Row(4) {
				b.Row(4)[j] = 2
			}
			b.Row(1)[2] = math.Inf(1)
			b.Row(1)[cols-1] = math.Inf(-1)
			b.Row(4)[0] = math.Inf(1)
			got := Mul(a, b)
			for j, v := range got.Row(0) {
				if v != 6 {
					t.Fatalf("MulInto %d cols: col %d = %v, want 6", cols, j, v)
				}
			}
			at := NewFrom(5, 1, a.Data)
			got = MulTransA(at, b)
			for j, v := range got.Row(0) {
				if v != 6 {
					t.Fatalf("MulTransAInto %d cols: col %d = %v, want 6", cols, j, v)
				}
			}
		}
	})
}

// Kernel micro-benchmarks at the products the default flow model trains on
// (batch 16), each against its frozen reference loop for a same-run
// before/after. They run at parallelism 1 so they time the kernel itself,
// not the worker pool.

// benchKernel times run(dst, x, y) serially on N(0,1) operands of the
// given shapes.
func benchKernel(b *testing.B, run func(dst, x, y *Matrix), dstShape, xShape, yShape [2]int) {
	r := rand.New(rand.NewSource(1))
	x, y := randMat(r, xShape[0], xShape[1]), randMat(r, yShape[0], yShape[1])
	dst := New(dstShape[0], dstShape[1])
	prev := Parallelism()
	SetParallelism(1)
	b.Cleanup(func() { SetParallelism(prev) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(dst, x, y)
	}
}

// benchMul times the m×n product a·b of an m×k a and a k×n b.
func benchMul(b *testing.B, m, k, n int, run func(dst, x, y *Matrix)) {
	benchKernel(b, run, [2]int{m, n}, [2]int{m, k}, [2]int{k, n})
}

// benchTransA times the m×n product aᵀ·b of a k×m a and a k×n b.
func benchTransA(b *testing.B, m, k, n int, run func(dst, x, y *Matrix)) {
	benchKernel(b, run, [2]int{m, n}, [2]int{k, m}, [2]int{k, n})
}

// benchTransB times the m×n product a·bᵀ of an m×k a and an n×k b.
func benchTransB(b *testing.B, m, k, n int, run func(dst, x, y *Matrix)) {
	benchKernel(b, run, [2]int{m, n}, [2]int{m, k}, [2]int{n, k})
}

func BenchmarkMulInto16x102x32(b *testing.B)    { benchMul(b, 16, 102, 32, MulInto) }
func BenchmarkMulInto16x102x32Ref(b *testing.B) { benchMul(b, 16, 102, 32, mulRef) }
func BenchmarkMulInto16x32x32(b *testing.B)     { benchMul(b, 16, 32, 32, MulInto) }
func BenchmarkMulInto16x32x32Ref(b *testing.B)  { benchMul(b, 16, 32, 32, mulRef) }
func BenchmarkMulInto16x196x32(b *testing.B)    { benchMul(b, 16, 196, 32, MulInto) }
func BenchmarkMulInto16x196x32Ref(b *testing.B) { benchMul(b, 16, 196, 32, mulRef) }

func BenchmarkMulTransAInto102x16x32(b *testing.B) { benchTransA(b, 102, 16, 32, MulTransAInto) }
func BenchmarkMulTransAInto102x16x32Ref(b *testing.B) {
	benchTransA(b, 102, 16, 32, mulTransARef)
}

func BenchmarkMulTransBInto16x32x102(b *testing.B) { benchTransB(b, 16, 32, 102, MulTransBInto) }
func BenchmarkMulTransBInto16x32x102Ref(b *testing.B) {
	benchTransB(b, 16, 32, 102, mulTransBRef)
}

// BenchmarkMulInto32_64x40x96 times the float32 fast-path product at a
// 64-row lot, against the frozen loop.
func BenchmarkMulInto32_64x40x96(b *testing.B)    { benchMul32(b, 64, 40, 96, MulInto32) }
func BenchmarkMulInto32_64x40x96Ref(b *testing.B) { benchMul32(b, 64, 40, 96, refMulInto32) }

func benchMul32(b *testing.B, m, k, n int, run func(dst, x, y *Matrix32)) {
	r := rand.New(rand.NewSource(1))
	x, y := randMat32(r, m, k, false), randMat32(r, k, n, false)
	dst := New32(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(dst, x, y)
	}
}
