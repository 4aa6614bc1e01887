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

// plantInf writes ±Inf into a few elements of b. Under a zero entry of the
// other operand the zero-skip keeps them out of the sum (0·Inf would be
// NaN); under a nonzero entry they propagate, and both must match the
// reference exactly.
func plantInf(r *rand.Rand, b *Matrix) {
	for n := 0; n < 1+len(b.Data)/50; n++ {
		b.Data[r.Intn(len(b.Data))] = math.Inf(1 - 2*r.Intn(2))
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

// TestKernelsMatchFrozenReference checks the three matmul kernels against
// the frozen reference loops with math.Float64bits over many random shapes,
// including sizes that are not multiples of the four-wide register block,
// 1-row and 1-column operands, sparse and one-hot left operands, ±Inf in the
// right operand, and both serial and forced-parallel dispatch.
func TestKernelsMatchFrozenReference(t *testing.T) {
	t.Cleanup(func() {
		SetParallelism(1)
		SetParallelThreshold(0)
	})
	r := rand.New(rand.NewSource(13))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33}
	zeroFracs := []float64{0, 0.3, 0.7, 0.95}
	pick := func() int { return dims[r.Intn(len(dims))] }
	for c := 0; c < 600; c++ {
		m, k, n := pick(), pick(), pick()
		if c < len(dims) {
			m, k, n = dims[c], dims[len(dims)-1-c], dims[c] // cover every size
		}
		zf := zeroFracs[c%len(zeroFracs)]
		oneHot := c%9 == 8
		a := sparseMat(r, m, k, zf, oneHot)  // m×k, for MulInto / MulTransBInto
		at := sparseMat(r, k, m, zf, oneHot) // k×m, for MulTransAInto
		b := sparseMat(r, k, n, 0, false)    // k×n
		bt := sparseMat(r, n, k, 0, false)   // n×k, for MulTransBInto
		if c%3 == 0 {
			plantInf(r, b)
			plantInf(r, bt)
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
			sameBits(t, "MulTransBInto "+name, MulTransB(a, bt), wantTB)
		}
	}
}

// TestKernelsEmptyOperands covers products with a zero dimension, where
// the sums are empty and every output element must be +0.
func TestKernelsEmptyOperands(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, sh := range [][3]int{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0}, {1, 0, 1}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, at := sparseMat(r, m, k, 0, false), sparseMat(r, k, m, 0, false)
		b, bt := sparseMat(r, k, n, 0, false), sparseMat(r, n, k, 0, false)
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		sameBits(t, "MulInto "+name, Mul(a, b), product(mulRef, m, n, a, b))
		sameBits(t, "MulTransAInto "+name, MulTransA(at, b), product(mulTransARef, m, n, at, b))
		sameBits(t, "MulTransBInto "+name, MulTransB(a, bt), product(mulTransBRef, m, n, a, bt))
	}
}

// TestKernelsZeroSkipUnderInf pins the zero-skip directly: a zero left
// operand next to an infinite right operand contributes nothing, so the
// product stays finite where the naive sum would be NaN.
func TestKernelsZeroSkipUnderInf(t *testing.T) {
	a := NewFrom(1, 5, []float64{1, 0, 2, 3, 4})
	b := New(5, 6)
	b.Fill(1)
	b.Row(1)[2] = math.Inf(1)
	b.Row(1)[5] = math.Inf(-1)
	got := Mul(a, b)
	for j, v := range got.Row(0) {
		if v != 10 {
			t.Fatalf("MulInto col %d = %v, want 10", j, v)
		}
	}
	at := NewFrom(5, 1, a.Data)
	got = MulTransA(at, b)
	for j, v := range got.Row(0) {
		if v != 10 {
			t.Fatalf("MulTransAInto col %d = %v, want 10", j, v)
		}
	}
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
