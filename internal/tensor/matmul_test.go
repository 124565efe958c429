package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matMulRef is the naive triple-loop reference the blocked kernel must
// reproduce.
func matMulRef(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		switch rng.Intn(8) {
		case 0:
			d[i] = 0 // exercise the zero-skip path
		default:
			d[i] = rng.NormFloat64()
		}
	}
	return t
}

// TestPropMatMulMatchesReference checks the blocked, parallel kernel
// against the naive reference over random shapes, including shapes large
// enough to cross the block and parallel-dispatch thresholds.
func TestPropMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {3, 300, 2}}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	// Cross matMulParFLOPs, the k/j block boundaries, and the panel-path
	// threshold (k*n elements beyond matMulPanelBytes).
	shapes = append(shapes, [3]int{70, 300, 64}, [3]int{9, 520, 530}, [3]int{3, 1100, 1000})
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got, err := MatMul(a, b)
		if err != nil {
			t.Fatalf("[%d %d %d]: %v", m, k, n, err)
		}
		want := matMulRef(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				g, w := got.At(i, j), want.At(i, j)
				if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
					t.Fatalf("[%d %d %d] at (%d,%d): got %g, want %g", m, k, n, i, j, g, w)
				}
			}
		}
	}
}

// TestMatMulBitIdenticalAcrossRowSplits verifies that computing a product
// whole gives bit-identical rows to computing any row subset: the batched
// inference path relies on this to match sequential execution exactly.
func TestMatMulBitIdenticalAcrossRowSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, k, n = 96, 130, 50
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	whole, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 7, 32} {
		for lo := 0; lo < m; lo += rows {
			hi := min(lo+rows, m)
			sub, err := a.Narrow(0, lo, hi-lo)
			if err != nil {
				t.Fatal(err)
			}
			part, err := MatMul(sub, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					if part.At(i-lo, j) != whole.At(i, j) {
						t.Fatalf("rows=%d: row %d differs from whole product", rows, i)
					}
				}
			}
		}
	}
}

func TestMatMulStridedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := randTensor(rng, 6, 9)
	a, err := at.Transpose(0, 1) // [9, 6], non-contiguous
	if err != nil {
		t.Fatal(err)
	}
	b := randTensor(rng, 6, 4)
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := matMulRef(a.Contiguous(), b)
	for i := 0; i < 9; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("strided matmul differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestMatMulInto checks buffer reuse: a dst full of garbage must be fully
// overwritten, and back-to-back calls into the same dst must agree.
func TestMatMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 8, 12)
	b := randTensor(rng, 12, 5)
	dst := Full(math.NaN(), 8, 5)
	if err := MatMulInto(dst, a, b); err != nil {
		t.Fatal(err)
	}
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 5; j++ {
			if dst.At(i, j) != want.At(i, j) {
				t.Fatalf("into result differs at (%d,%d): %g vs %g", i, j, dst.At(i, j), want.At(i, j))
			}
		}
	}
	// Second product into the same buffer.
	a2 := randTensor(rng, 8, 12)
	if err := MatMulInto(dst, a2, b); err != nil {
		t.Fatal(err)
	}
	want2, _ := MatMul(a2, b)
	if dst.At(3, 2) != want2.At(3, 2) {
		t.Fatal("dst not refreshed on reuse")
	}
}

func TestMatMulIntoErrors(t *testing.T) {
	a, b := New(3, 4), New(4, 2)
	if err := MatMulInto(New(3, 3), a, b); err == nil {
		t.Fatal("want error for dst shape mismatch")
	}
	bad, err := New(2, 3).Transpose(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := MatMulInto(bad, a, b); err == nil {
		t.Fatal("want error for non-contiguous dst")
	}
	if err := MatMulInto(New(3, 2), New(3), b); err == nil {
		t.Fatal("want error for rank-1 operand")
	}
	if err := MatMulInto(New(3, 2), New(3, 5), b); err == nil {
		t.Fatal("want error for inner-dim mismatch")
	}
}

// BenchmarkMatMul times the f64 product at the square sizes and the
// serving shapes (the wide MLP's three layers at batch 32, the binomial
// surrogate's hidden layer at batch 1024), running the kernel this host
// dispatches to beside the generic loop, and reports GFLOP/s for both.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{64, 256} {
		x := randTensor(rng, size, size)
		y := randTensor(rng, size, size)
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MatMul(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, s := range [][3]int{{32, 16, 128}, {32, 128, 128}, {32, 128, 8}, {1024, 16, 16}, {256, 256, 256}} {
		m, k, n := s[0], s[1], s[2]
		x, y, dst := randTensor(rng, m, k), randTensor(rng, k, n), New(m, n)
		for _, leg := range []struct {
			name string
			tile bool
		}{{Kernel(), haveTile}, {"generic", false}} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, leg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					matMulKernel(dst, x, y, nil, leg.tile)
				}
				b.ReportMetric(float64(2*m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// specialTensor fills a tensor like randTensor and, when special is set,
// salts it with -0, ±Inf and NaN.
func specialTensor(rng *rand.Rand, special bool, shape ...int) *Tensor {
	t := randTensor(rng, shape...)
	if !special {
		return t
	}
	d := t.Data()
	for i := range d {
		switch rng.Intn(40) {
		case 0:
			d[i] = math.Copysign(0, -1)
		case 1:
			d[i] = math.Inf(1)
		case 2:
			d[i] = math.Inf(-1)
		case 3:
			d[i] = math.NaN()
		}
	}
	return t
}

// TestPropTileBitIdenticalToGeneric compares the tile dispatch with the
// generic loop bit for bit, over shapes with rows%4 != 0 and cols%8 != 0,
// inputs holding zeros and -0, biases holding -0, and weights holding
// ±Inf and NaN: the cases where computing 0*w differs from skipping it.
func TestPropTileBitIdenticalToGeneric(t *testing.T) {
	if !haveTile {
		t.Log("no AVX2 tile on this host: both sides run the generic loop")
	}
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{4, 1, 8}, {5, 3, 9}, {32, 16, 128}, {33, 128, 130}, {70, 300, 64}, {9, 520, 530}}
	for trial := 0; trial < 60; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	for i, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := specialTensor(rng, false, m, k)
		b := specialTensor(rng, i%3 == 1, k, n)
		var bias *Tensor
		if i%2 == 0 {
			bias = specialTensor(rng, i%4 == 0, n)
			if i%4 == 0 {
				bias.Data()[rng.Intn(n)] = math.Copysign(0, -1)
			}
		}
		got, want := Full(7, m, n), Full(-7, m, n)
		matMulKernel(got, a, b, bias, true)
		matMulKernel(want, a, b, bias, false)
		for j, w := range want.Data() {
			if g := got.Data()[j]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("[%d %d %d] bias=%v element %d: tile %v (%#x), generic %v (%#x)",
					m, k, n, bias != nil, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestMatMulBiasInto checks the bias-init entry point against MatMul plus
// a per-row bias add done in the same order (bias first, then products).
func TestMatMulBiasInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 13, 21, 19
	a, b, bias := randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, n)
	dst := Full(math.NaN(), m, n)
	if err := MatMulBiasInto(dst, a, b, bias); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := bias.At(j)
			for kk := 0; kk < k; kk++ {
				if av := a.At(i, kk); av != 0 {
					s += av * b.At(kk, j)
				}
			}
			if got := dst.At(i, j); math.Float64bits(got) != math.Float64bits(s) {
				t.Fatalf("(%d,%d): got %v, want %v", i, j, got, s)
			}
		}
	}
	if err := MatMulBiasInto(dst, a, b, New(n+1)); err == nil {
		t.Fatal("want error for bias length mismatch")
	}
	if err := MatMulBiasInto(dst, a, b, New(1, n)); err == nil {
		t.Fatal("want error for rank-2 bias")
	}
}

// TestTileRowsChecksBounds pins the guard in front of the assembly: a
// slice shorter than the extents it is told about panics in Go instead
// of being read past its end.
func TestTileRowsChecksBounds(t *testing.T) {
	for _, c := range []struct {
		name       string
		od, ad, bd int
	}{{"short A", 8 * 8, 4*4 - 1, 4 * 8}, {"short B", 8 * 8, 4 * 4, 4*8 - 1}, {"short C", 4*8 - 1, 4 * 4, 4 * 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", c.name)
				}
			}()
			tileRows(make([]float64, c.od), make([]float64, c.ad), make([]float64, c.bd), 4, 8, 0, 4, 8)
		}()
	}
}
