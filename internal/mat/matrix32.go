package mat

import "fmt"

// Matrix32 is the float32 sibling of Matrix, used exclusively by the
// inference fast path (DESIGN.md §11). Training and the bitwise-
// deterministic float64 generation path never touch it: reduced precision
// is acceptable only where correctness is pinned distributionally (the
// conformance harness), not bitwise.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// New32 returns a zero-initialized rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Compress32 converts a float64 matrix to float32, the one-way weight
// narrowing step of the inference snapshot. Values outside float32 range
// saturate to ±Inf; trained GAN weights are far inside it.
func Compress32(m *Matrix) *Matrix32 {
	out := New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Row returns a slice aliasing row i. Mutating it mutates the matrix.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowsView returns a matrix aliasing rows [lo, hi) of m; no data is copied.
func (m *Matrix32) RowsView(lo, hi int) *Matrix32 {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("mat: RowsView [%d, %d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix32{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Zero sets every element of m to 0.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulInto32 computes dst = a·b. dst must be a.Rows×b.Cols and must not
// alias a or b. Unlike the float64 MulInto it never forks goroutines (the
// fast path parallelizes at lot granularity, so nested parallelism would
// only add scheduling overhead) and skips the zero-input shortcut: fast
// inference multiplies dense noise and dense hidden states where zeros are
// measure-zero, so the branch costs more than it saves.
func MulInto32(dst, a, b *Matrix32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul32 inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul32 dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		mulRow32(dst.Row(i), a.Row(i), b)
	}
}

// mulRow32Go computes drow += arow·b. Four k-rows of b per pass: each pass
// over drow does 4 multiply-adds per element instead of 1, quartering the
// dominant drow load/store traffic (inner dims here are small, so the
// kernel is stream-bound, not cache-bound) and giving the scalar pipeline
// independent products. Every element takes
// d + (((a0·b0 + a1·b1) + a2·b2) + a3·b3) per group of four k, then one
// d + a·b per leftover k; the AVX2 kernel keeps that association per lane.
func mulRow32Go(drow, arow []float32, b *Matrix32) {
	n := b.Cols
	drow = drow[:n]
	k := 0
	for ; k+4 <= len(arow); k += 4 {
		a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		b0 := b.Row(k)[:n]
		b1 := b.Row(k + 1)[:n]
		b2 := b.Row(k + 2)[:n]
		b3 := b.Row(k + 3)[:n]
		for j := range drow {
			drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; k < len(arow); k++ {
		aik := arow[k]
		brow := b.Row(k)[:n]
		for j := range drow {
			drow[j] += aik * brow[j]
		}
	}
}

// AddRowVec adds the length-Cols vector v to every row of m (bias
// broadcast).
func (m *Matrix32) AddRowVec(v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVec32 len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}
