// Package mat provides the dense float64 matrix and vector arithmetic that
// underpins the neural-network stack. It is deliberately small: row-major
// matrices, the handful of BLAS-like kernels the GAN training loops need,
// and nothing else. All operations are deterministic given a seeded
// rand.Rand, so experiments are reproducible.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty matrix; use New or NewFrom to create a usable
// one. Methods that return a Matrix allocate a fresh result unless their
// documentation says otherwise.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFrom returns a rows×cols matrix backed by a copy of data.
func NewFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i. Mutating it mutates the matrix.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return NewFrom(m.Rows, m.Cols, m.Data)
}

// RowsView returns a matrix aliasing rows [lo, hi) of m: no data is copied,
// so writes through the view mutate m. The generation pipeline uses views to
// run lot-sized batches through scratch buffers allocated once at capacity.
func (m *Matrix) RowsView(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("mat: RowsView [%d, %d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// RandNorm fills m with N(0, std²) samples from r.
func (m *Matrix) RandNorm(r *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = r.NormFloat64() * std
	}
}

// Xavier fills m with the Glorot-uniform initialization for a layer with
// fanIn inputs and fanOut outputs.
func (m *Matrix) Xavier(r *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (r.Float64()*2 - 1) * limit
	}
}

// MulInto computes dst = a·b. dst must be a.Rows×b.Cols and must not alias
// a or b. It panics on shape mismatch.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	if parallelizable(a.Rows*a.Cols*b.Cols, a.Rows) {
		ParallelFor(a.Rows, func(lo, hi int) { mulRows(dst, a, b, lo, hi) })
		return
	}
	mulRows(dst, a, b, 0, a.Rows)
}

// mulRows computes dst rows [lo, hi) of a·b in ikj order: row i of dst
// accumulates a[i][k]·b[k] over the nonzero a[i][k]. Each dst element
// accumulates over k in ascending order regardless of the row split, so
// serial and parallel calls are bitwise identical.
func mulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		accumRow(dst.Row(i), a.Row(i), 1, b)
	}
}

// accumRowGo computes d += Σ_k c[k*stride]·b.Row(k) over the k in
// [0, b.Rows) whose coefficient is nonzero, bitwise equal to the plain loop
//
//	for k := range b.Rows { if c_k != 0 { for j := range d { d[j] += c_k*b[k][j] } } }
//
// It collects the nonzero k four at a time and then makes one pass over d
// that loads d[j], applies the four steps in ascending k and stores it, so
// every element still takes one rounded multiply and one rounded add per
// step, in the same order. Skipping zero coefficients (as the plain loop
// does) keeps a zero next to an Inf in b from producing NaN. Each step is
// its own `s += c*r[j]` statement, so on architectures where Go fuses
// multiply-add the kernel fuses exactly where the plain loop does.
func accumRowGo(d, c []float64, stride int, b *Matrix) {
	var ks [4]int
	n := 0
	for k := 0; k < b.Rows; k++ {
		if c[k*stride] == 0 {
			continue
		}
		ks[n&3] = k
		if n++; n == 4 {
			k0, k1, k2, k3 := ks[0], ks[1], ks[2], ks[3]
			axpy4(d, c[k0*stride], c[k1*stride], c[k2*stride], c[k3*stride],
				b.Row(k0), b.Row(k1), b.Row(k2), b.Row(k3))
			n = 0
		}
	}
	for _, k := range ks[:n&3] {
		axpy1(d, c[k*stride], b.Row(k))
	}
}

// axpy4 computes d[j] += c0*r0[j], then c1*r1[j], c2*r2[j] and c3*r3[j],
// rounding after each step. Every row is re-sliced to len(d) so the loop
// runs without bounds checks.
func axpy4(d []float64, c0, c1, c2, c3 float64, r0, r1, r2, r3 []float64) {
	r0, r1, r2, r3 = r0[:len(d)], r1[:len(d)], r2[:len(d)], r3[:len(d)]
	for j := range d {
		s := d[j]
		s += c0 * r0[j]
		s += c1 * r1[j]
		s += c2 * r2[j]
		s += c3 * r3[j]
		d[j] = s
	}
}

// axpy1 computes d += c·r.
func axpy1(d []float64, c float64, r []float64) {
	r = r[:len(d)]
	for j := range d {
		d[j] += c * r[j]
	}
}

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	MulInto(dst, a, b)
	return dst
}

// MulTransAInto computes dst = aᵀ·b without materializing aᵀ.
func MulTransAInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTransA inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	if parallelizable(a.Rows*a.Cols*b.Cols, dst.Rows) {
		ParallelFor(dst.Rows, func(lo, hi int) { mulTransARows(dst, a, b, lo, hi) })
		return
	}
	mulTransARows(dst, a, b, 0, dst.Rows)
}

// mulTransARows computes dst rows [lo, hi) of aᵀ·b: row i of dst
// accumulates a[k][i]·b[k] over the nonzero entries of column i of a. Every
// dst element accumulates over k in ascending order — the order of a full
// serial pass and of the plain k-outer loop — so parallel and serial
// results are bitwise identical.
func mulTransARows(dst, a, b *Matrix, lo, hi int) {
	if a.Rows == 0 {
		return // an empty sum: dst stays zero, and a.Data[i:] would be out of range
	}
	for i := lo; i < hi; i++ {
		accumRow(dst.Row(i), a.Data[i:], a.Cols, b)
	}
}

// MulTransA returns aᵀ·b.
func MulTransA(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	MulTransAInto(dst, a, b)
	return dst
}

// MulTransBInto computes dst = a·bᵀ without materializing bᵀ.
func MulTransBInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTransB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if parallelizable(a.Rows*a.Cols*b.Rows, a.Rows) {
		ParallelFor(a.Rows, func(lo, hi int) { mulTransBRows(dst, a, b, lo, hi) })
		return
	}
	mulTransBRows(dst, a, b, 0, a.Rows)
}

// mulTransBRowsGo computes dst rows [lo, hi) of a·bᵀ as independent dot
// products, four output columns at a time with one accumulator each. Every
// accumulator sums over k in ascending order, so the result is bitwise
// identical to one dot product per column and to any row split.
func mulTransBRowsGo(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0, b1 := b.Row(j)[:len(arow)], b.Row(j + 1)[:len(arow)]
			b2, b3 := b.Row(j + 2)[:len(arow)], b.Row(j + 3)[:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)[:len(arow)]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// MulTransB returns a·bᵀ.
func MulTransB(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	MulTransBInto(dst, a, b)
	return dst
}

// Add computes m += other, element-wise.
func (m *Matrix) Add(other *Matrix) {
	m.assertSameShape(other, "Add")
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Sub computes m -= other, element-wise.
func (m *Matrix) Sub(other *Matrix) {
	m.assertSameShape(other, "Sub")
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element of m by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled computes m += s*other.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	m.assertSameShape(other, "AddScaled")
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// Hadamard computes m *= other, element-wise.
func (m *Matrix) Hadamard(other *Matrix) {
	m.assertSameShape(other, "Hadamard")
	for i, v := range other.Data {
		m.Data[i] *= v
	}
}

// AddRowVec adds the 1×Cols vector v to every row of m (bias broadcast).
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVec len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ColSums returns the per-column sums of m as a length-Cols slice.
func (m *Matrix) ColSums() []float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// Apply replaces every element x of m with f(x).
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value of m.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

func (m *Matrix) assertSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// Dot returns the inner product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// VecNorm returns the L2 norm of v.
func VecNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Lerp returns a + t*(b-a) element-wise as a new slice.
func Lerp(a, b []float64, t float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Lerp length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + t*(b[i]-a[i])
	}
	return out
}
