//go:build !amd64

package mat

// Off amd64 the pure-Go kernels are the only path.

// useAVX2 is always false here; the kernel tests read it to decide which
// paths to run.
var useAVX2 = false

func accumRow(d, c []float64, stride int, b *Matrix) { accumRowGo(d, c, stride, b) }

func mulTransBRows(dst, a, b *Matrix, lo, hi int) { mulTransBRowsGo(dst, a, b, lo, hi) }

func mulRow32(drow, arow []float32, b *Matrix32) { mulRow32Go(drow, arow, b) }
