package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// denseRef is the scalar dense forward the GEMM kernel must reproduce bit
// for bit: each output row starts from the bias and adds x[k]*W[k,:] over
// ascending k, skipping zero inputs. It writes into out and returns it.
func denseRef(d *Dense, x, out *tensor.Tensor) *tensor.Tensor {
	rows := x.Dim(0)
	xd, wd, bd, od := x.Contiguous().Data(), d.Weight.W.Data(), d.Bias.W.Data(), out.Data()
	for r := 0; r < rows; r++ {
		orow := od[r*d.Out : (r+1)*d.Out]
		copy(orow, bd)
		for k, xv := range xd[r*d.In : (r+1)*d.In] {
			if xv == 0 {
				continue
			}
			wrow := wd[k*d.Out : (k+1)*d.Out]
			for j := range orow {
				orow[j] += xv * wrow[j]
			}
		}
	}
	return out
}

// salt overwrites about one in every n entries of d with a value drawn
// from vals.
func salt(rng *rand.Rand, d []float64, n int, vals ...float64) {
	for i := range d {
		if rng.Intn(n) == 0 {
			d[i] = vals[rng.Intn(len(vals))]
		}
	}
}

// sameBits requires every element of got to have the bits of want. Two
// NaNs match whatever their payloads: when both addends of acc + x*w are
// NaN, which payload survives depends on the operand order the compiler
// picks for the commutative ADDSD, which the Go source does not fix (the
// scalar loop this package used to run and tensor's generic loop already
// differed there).
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i, w := range want.Data() {
		g := got.Data()[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestPropDenseBitIdenticalToReference runs the dense forward against the
// scalar reference over random (rows, in, out), including rows%4 != 0 and
// out%8 != 0, with zero and -0 inputs (and an all-zero row), -0 biases,
// and ±Inf/NaN weights: the cases where computing 0*w differs from
// skipping it.
func TestPropDenseBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	negZero := math.Copysign(0, -1)
	shapes := [][3]int{{32, 16, 128}, {32, 128, 128}, {32, 128, 8}, {1024, 16, 16}, {3, 5, 7}, {33, 17, 9}}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(50), 1 + rng.Intn(50)})
	}
	for i, s := range shapes {
		rows, in, out := s[0], s[1], s[2]
		net := NewNetwork(int64(i))
		d := net.NewDense(in, out)
		x := randInput(rng, rows, in)
		salt(rng, x.Data(), 4, 0, negZero)
		// An all-zero row leaves each output at its bias in the reference.
		clear(x.Data()[rng.Intn(rows)*in:][:in])
		if i%2 == 1 {
			salt(rng, d.Bias.W.Data(), 3, negZero, 0)
		}
		if i%3 == 2 {
			salt(rng, d.Weight.W.Data(), 20, math.Inf(1), math.Inf(-1), math.NaN())
		}
		got, err := d.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("[%d %d %d]", rows, in, out), got, denseRef(d, x, tensor.New(rows, out)))
	}
}

// TestDenseBitIdenticalAcrossRowSplits checks that forwarding a batch in
// slices of 1, 7 and 32 rows gives the same bits as the whole batch: the
// remainder rows run the generic loop and the rest the tile, and the
// whole batch is large enough to split across workers.
func TestDenseBitIdenticalAcrossRowSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const rows, in, out = 96, 130, 50
	d := NewNetwork(5).NewDense(in, out)
	x := randInput(rng, rows, in)
	salt(rng, x.Data(), 6, 0)
	whole, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{1, 7, 32} {
		for lo := 0; lo < rows; lo += step {
			hi := min(lo+step, rows)
			sub, err := x.Narrow(0, lo, hi-lo)
			if err != nil {
				t.Fatal(err)
			}
			part, err := d.Forward(sub, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := whole.Narrow(0, lo, hi-lo)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("rows %d:%d of split %d", lo, hi, step), part, want.Contiguous())
		}
	}
}

// BenchmarkDenseForward times one dense layer's forward at the serving
// shapes (the wide MLP's layers at batch 32, the binomial surrogate's at
// batch 1024) with the dispatched kernel beside the scalar reference,
// reporting GFLOP/s for both.
func BenchmarkDenseForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][3]int{{32, 16, 128}, {32, 128, 128}, {32, 128, 8}, {1024, 3, 16}, {1024, 16, 16}} {
		rows, in, out := s[0], s[1], s[2]
		d := NewNetwork(1).NewDense(in, out)
		x, dst := randInput(rng, rows, in), tensor.New(rows, out)
		flops := float64(2 * rows * in * out)
		b.Run(fmt.Sprintf("%dx%dx%d/%s", rows, in, out, tensor.Kernel()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.forwardInto(dst, x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(fmt.Sprintf("%dx%dx%d/reference", rows, in, out), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				denseRef(d, x, dst)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
