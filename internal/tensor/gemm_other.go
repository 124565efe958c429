//go:build !amd64

package tensor

// haveTile is false off amd64: every product runs the generic loop.
const haveTile = false

func gemm4x8AVX2(c, a, b *float64, kc, blocks, lda, ldb, ldc int) bool {
	panic("tensor: no tile kernel on this architecture")
}
