package tensor

// haveTile reports whether the 4x8 AVX2 tile runs on this host: the CPU
// has AVX2 and the OS saves the YMM registers (OSXSAVE set and XCR0
// enabling both the SSE and AVX state).
var haveTile = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gemm4x8AVX2 is implemented in gemm_amd64.s; tileRows is its only
// caller and checks every bound it relies on.
//
//go:noescape
func gemm4x8AVX2(c, a, b *float64, kc, blocks, lda, ldb, ldc int) (nan bool)
