package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// The MatMul kernel parallelizes across output-row ranges. On amd64 hosts
// with AVX2, full 4-row x 8-column output blocks run the assembly tile in
// gemm_amd64.s; the remaining rows and columns, and every block on other
// hosts, run the generic loop. The generic loop adapts its loop order to
// the size of B. While B fits in the last-level cache, each
// output row is accumulated fully while resident in L1 and B's rows are
// streamed — panel blocking would only add C re-traffic. Once B outgrows
// the cache, the kernel switches to [matMulBlockK x matMulBlockJ] panels
// of B that stay cache-resident while applied to every row of the
// worker's range. Both orders accumulate each output element over k
// ascending, so the paths (and any row split across workers) are
// bit-identical.
const (
	// matMulPanelBytes approximates the last-level cache share available
	// to B; beyond it the kernel blocks B into panels.
	matMulPanelBytes = 8 << 20
	// matMulBlockK bounds the depth of a B panel, for the generic loop
	// and the tile alike.
	matMulBlockK = 256
	// matMulBlockJ bounds a panel's column window so one panel
	// (matMulBlockK x matMulBlockJ float64s, ~1 MB) fits in L2.
	matMulBlockJ = 512
	// matMulParFLOPs is the multiply-accumulate count below which the
	// goroutine fan-out costs more than it saves and the kernel runs
	// serially on the calling goroutine.
	matMulParFLOPs = 1 << 18
)

// MatMul computes a @ b for rank-2 tensors [m,k] x [k,n] -> [m,n] with a
// cache-aware kernel parallelized across row ranges.
func MatMul(a, b *Tensor) (*Tensor, error) {
	m, n, err := matMulDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	matMulKernel(out, a, b, nil, haveTile)
	return out, nil
}

// MatMulInto computes a @ b into dst, which must be a contiguous [m,n]
// tensor whose storage does not overlap a or b. dst's previous contents
// are overwritten, letting hot paths (the batched region-inference
// staging, conv backward) reuse one output buffer across calls instead
// of allocating per invocation.
func MatMulInto(dst, a, b *Tensor) error {
	return MatMulBiasInto(dst, a, b, nil)
}

// MatMulBiasInto computes a @ b + bias into dst: every row of dst starts
// from the rank-1 [n] bias (zeros when bias is nil) and accumulates the
// products over k ascending. dst must be a contiguous [m,n] tensor whose
// storage does not overlap a, b or bias. Dense layers call it with their
// bias; MatMulInto with none.
func MatMulBiasInto(dst, a, b, bias *Tensor) error {
	m, n, err := matMulDims(a, b)
	if err != nil {
		return err
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmul dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	if !dst.IsContiguous() {
		return fmt.Errorf("tensor: matmul dst must be contiguous")
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != n) {
		return fmt.Errorf("tensor: matmul bias shape %v, want [%d]", bias.shape, n)
	}
	matMulKernel(dst, a, b, bias, haveTile)
	return nil
}

func matMulDims(a, b *Tensor) (m, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, fmt.Errorf("tensor: matmul wants rank-2 operands, got %d and %d", a.Rank(), b.Rank())
	}
	if a.shape[1] != b.shape[0] {
		return 0, 0, fmt.Errorf("tensor: matmul inner dims differ: %d vs %d", a.shape[1], b.shape[0])
	}
	return a.shape[0], b.shape[1], nil
}

// Kernel names the f64 GEMM kernel this process runs: "avx2" when the
// 4x8 tile is in use, "generic" when every product runs the portable
// loop.
func Kernel() string {
	if haveTile {
		return "avx2"
	}
	return "generic"
}

// matMulKernel assumes shapes were validated and dst is contiguous. tile
// selects the AVX2 tile where the host has it; the generic loop alone
// runs otherwise.
func matMulKernel(dst, a, b, bias *Tensor, tile bool) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	ac, bc := a.Contiguous(), b.Contiguous()
	ad := ac.data[ac.offset : ac.offset+m*k]
	bd := bc.data[bc.offset : bc.offset+k*n]
	od := dst.data[dst.offset : dst.offset+m*n]
	var biasd []float64
	if bias != nil {
		bc := bias.Contiguous()
		biasd = bc.data[bc.offset : bc.offset+n]
	}
	tile = tile && !hasNegZero(biasd)
	if m*k*n < matMulParFLOPs {
		gemmRows(od, ad, bd, biasd, k, n, 0, m, tile)
		return
	}
	parallel.ForRange(m, func(lo, hi int) {
		gemmRows(od, ad, bd, biasd, k, n, lo, hi, tile)
	})
}

// The tile computes exactly the generic loop's operations on every
// element except one: the generic loop skips a zero A element, while the
// tile adds its product. Adding 0*w leaves any accumulator unchanged
// unless w is ±Inf or NaN (0*Inf is NaN, which then stays NaN) or the
// accumulator is -0 and the product +0 (giving +0). An accumulator is -0
// only when it starts from a -0 bias, since a sum of values is -0 only
// when every addend is, so hasNegZero sends those products to the generic
// loop; and rows whose tile output holds a NaN are recomputed by the
// generic loop. Either way the result is bit-identical to the generic
// loop's.

// hasNegZero reports whether bias holds a -0 entry.
func hasNegZero(bias []float64) bool {
	for _, v := range bias {
		if v == 0 && math.Signbit(v) {
			return true
		}
	}
	return false
}

// gemmRows computes output rows [lo, hi): each starts from bias (zeros
// when nil) and accumulates over k ascending. With tile set, the full
// 4-row x 8-column blocks run the AVX2 tile and the remaining rows and
// columns the generic loop.
func gemmRows(od, ad, bd, bias []float64, k, n, lo, hi int, tile bool) {
	initRows(od, bias, n, lo, hi)
	rows, cols := (hi-lo)&^3, n&^7
	if tile && rows > 0 && cols > 0 && k > 0 {
		if tileRows(od, ad, bd, k, n, lo, lo+rows, cols) {
			matMulRows(ad, bd, od, k, n, lo, lo+rows, cols, n)
			matMulRows(ad, bd, od, k, n, lo+rows, hi, 0, n)
			return
		}
		// A NaN came out of the tile: redo its rows with the generic loop.
		initRows(od, bias, n, lo, lo+rows)
	}
	matMulRows(ad, bd, od, k, n, lo, hi, 0, n)
}

// initRows sets output rows [lo, hi) to bias, or to zeros when it is nil.
func initRows(od, bias []float64, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		if bias == nil {
			clear(od[i*n : (i+1)*n])
		} else {
			copy(od[i*n:(i+1)*n], bias)
		}
	}
}

// tileM is the row slab of the tile's blocking: each k x 8 panel of B (at
// most matMulBlockK deep, 16 KB) is reused by every 4-row block of a
// tileM-row slab of A (tileM x matMulBlockK, 128 KB) before the next
// panel.
const tileM = 64

// tileRows adds A[lo:hi, :] @ B[:, 0:cols] into od with the AVX2 tile
// and reports whether every element it wrote is free of NaN. hi-lo must
// be a multiple of 4 and cols a multiple of 8. The assembly does no
// bounds checks, so every extent it touches is checked here first.
func tileRows(od, ad, bd []float64, k, n, lo, hi, cols int) bool {
	if lo < 0 || (hi-lo)%4 != 0 || cols%8 != 0 || cols > n || k <= 0 ||
		len(ad) < hi*k || len(bd) < k*n || len(od) < hi*n {
		panic(fmt.Sprintf("tensor: tile bounds rows [%d,%d) cols %d of [%d x %d] @ [%d x %d] (len %d, %d, %d)",
			lo, hi, cols, hi, k, k, n, len(ad), len(bd), len(od)))
	}
	nan := false
	for k0 := 0; k0 < k; k0 += matMulBlockK {
		kc := min(matMulBlockK, k-k0)
		for i0 := lo; i0 < hi; i0 += tileM {
			blocks := min(tileM, hi-i0) / 4
			for j := 0; j < cols; j += 8 {
				if gemm4x8AVX2(&od[i0*n+j], &ad[i0*k+k0], &bd[k0*n+j], kc, blocks, k, n, n) {
					nan = true
				}
			}
		}
	}
	return !nan
}

// matMulRows is the generic loop: it accumulates output rows [lo, hi)
// over columns [j0, j1), skipping zero A elements, and chooses stream or
// panel order by the size of B.
func matMulRows(ad, bd, od []float64, k, n, lo, hi, j0, j1 int) {
	if j0 >= j1 {
		return
	}
	if k*n*8 <= matMulPanelBytes {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			orow := od[i*n+j0 : i*n+j1]
			for kk := 0; kk < k; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				brow := bd[kk*n+j0 : kk*n+j1]
				for j := range orow {
					orow[j] += av * brow[j]
				}
			}
		}
		return
	}
	for k0 := 0; k0 < k; k0 += matMulBlockK {
		k1 := min(k0+matMulBlockK, k)
		for jb := j0; jb < j1; jb += matMulBlockJ {
			je := min(jb+matMulBlockJ, j1)
			for i := lo; i < hi; i++ {
				arow := ad[i*k : (i+1)*k]
				orow := od[i*n+jb : i*n+je]
				for kk := k0; kk < k1; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					brow := bd[kk*n+jb : kk*n+je]
					for j := range orow {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}
