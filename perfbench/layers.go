package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// probeBudget is how long each probe leg measures.
const probeBudget = 150 * time.Millisecond

// timeCalls runs fn in groups long enough to time reliably (at least
// 50µs each) until budget is spent, recording one span per group, and
// returns the median time of one call.
func timeCalls(ln *lane, name string, budget time.Duration, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil { // warm caches and pools
		return 0, err
	}
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		if time.Since(t0) >= 50*time.Microsecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var per []time.Duration
	end := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(end) {
		id := ln.id()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		t1 := time.Now()
		ln.add(fmt.Sprintf("%s x%d", name, n), id, t0, t1)
		per = append(per, t1.Sub(t0)/time.Duration(n))
	}
	return time.Duration(quantileUs(per, 0.5) * 1e3), nil
}

// probeLayers measures the nn forward programs and the tensor kernels
// of net at one batch of rows taken from pool, at f64, f32 and int8
// with the same model, batch and shapes. The int8 program is
// calibrated on pool itself. A precision the model cannot compile is
// left out of the returned metrics and its reason kept in the detail.
func probeLayers(net *nn.Network, pool []float64, in, out, batch int, ln *lane) (map[string]float64, map[string]any, error) {
	m := map[string]float64{}
	detail := map[string]any{"batch": batch}
	x := make([]float64, batch*in)
	for i := range x {
		x[i] = pool[i%len(pool)]
	}
	xt, err := tensor.FromSlice(x, batch, in)
	if err != nil {
		return nil, nil, err
	}
	yt := tensor.New(batch, out)
	perRow := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(batch) }

	d, err := timeCalls(ln, "nn.Network.ForwardInto", probeBudget, func() error { return net.ForwardInto(yt, xt) })
	if err != nil {
		return nil, nil, err
	}
	m["nn.forward_us_per_row"] = perRow(d)
	ref := yt.Data()

	dst := make([]float64, batch*out)
	absent := map[string]string{}
	if f32, err := nn.NewForward32(net); err != nil {
		absent["f32"] = err.Error()
	} else {
		d, err := timeCalls(ln, "nn.Forward32.ForwardFloat64", probeBudget, func() error { return f32.ForwardFloat64(dst, x, batch) })
		if err != nil {
			return nil, nil, err
		}
		m["nn.forward32_us_per_row"] = perRow(d)
		detail["f32_rel_err"] = relErr(dst, ref)
	}
	poolT, err := tensor.FromSlice(append([]float64(nil), pool...), len(pool)/in, in)
	if err != nil {
		return nil, nil, err
	}
	if calib, err := nn.CalibrateI8(net, poolT, nn.CalibConfig{}); err != nil {
		absent["i8"] = err.Error()
	} else if fi8, err := nn.NewForwardI8(net, calib); err != nil {
		absent["i8"] = err.Error()
	} else {
		d, err := timeCalls(ln, "nn.ForwardI8.Forward", probeBudget, func() error { return fi8.Forward(dst, x, batch) })
		if err != nil {
			return nil, nil, err
		}
		m["nn.forwardi8_us_per_row"] = perRow(d)
		detail["i8_rel_err"] = relErr(dst, ref)
	}
	if len(absent) > 0 {
		detail["absent_precisions"] = absent
	}

	kern, err := probeKernels(net, batch, ln)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range kern.metrics {
		m[k] = v
	}
	detail["dense_shapes"] = kern.shapes
	return m, detail, nil
}

// relErr is the relative L2 distance of got from want.
func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

type denseShape struct {
	M, K, N       int
	F64Us         float64 `json:"f64_us"`
	F32Us         float64 `json:"f32_us"`
	I8Us          float64 `json:"i8_us"`
	FlopsComputed int64   `json:"flops_computed"`
	BytesComputed int64   `json:"bytes_computed"`
}

type kernelProbe struct {
	metrics map[string]float64
	shapes  []denseShape
}

// probeKernels times the three GEMM kernels at every Dense shape of net
// for a batch of rows: [batch, in] x [in, out]. The rates are total
// operations over total median time across the shapes; operation and
// byte counts are computed from the shapes (f64 operands and result,
// each moved once), not measured.
func probeKernels(net *nn.Network, batch int, ln *lane) (*kernelProbe, error) {
	rng := rand.New(rand.NewSource(int64(batch)))
	kp := &kernelProbe{metrics: map[string]float64{}}
	var ops, bytes int64
	var t64, t32, t8 time.Duration
	for _, e := range net.Layers {
		dl, ok := e.Layer.(*nn.Dense)
		if !ok {
			continue
		}
		m, k, n := batch, dl.In, dl.Out
		s := denseShape{M: m, K: k, N: n}
		a, b, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
		a32, b32, c32 := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
		a8, b8, c8 := make([]int8, m*k), make([]int8, k*n), make([]int32, m*n)
		for i, ad := 0, a.Data(); i < m*k; i++ {
			ad[i] = 2*rng.Float64() - 1
			a32[i] = float32(ad[i])
			a8[i] = int8(rng.Intn(255) - 127)
		}
		for i, bd := 0, b.Data(); i < k*n; i++ {
			bd[i] = 2*rng.Float64() - 1
			b32[i] = float32(bd[i])
			b8[i] = int8(rng.Intn(255) - 127)
		}
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		d64, err := timeCalls(ln, "tensor.MatMulInto "+name, probeBudget, func() error { return tensor.MatMulInto(c, a, b) })
		if err != nil {
			return nil, err
		}
		d32, err := timeCalls(ln, "tensor.MatMulInto32 "+name, probeBudget, func() error { return tensor.MatMulInto32(c32, a32, b32, m, k, n) })
		if err != nil {
			return nil, err
		}
		d8, err := timeCalls(ln, "tensor.MatMulInt8Into "+name, probeBudget, func() error { return tensor.MatMulInt8Into(c8, a8, b8, m, k, n) })
		if err != nil {
			return nil, err
		}
		s.F64Us, s.F32Us, s.I8Us = float64(d64)/1e3, float64(d32)/1e3, float64(d8)/1e3
		s.FlopsComputed = int64(2 * m * k * n)
		s.BytesComputed = int64(8 * (m*k + k*n + m*n))
		ops += s.FlopsComputed
		bytes += s.BytesComputed
		t64, t32, t8 = t64+d64, t32+d32, t8+d8
		kp.shapes = append(kp.shapes, s)
	}
	if ops == 0 {
		return nil, fmt.Errorf("model has no dense layer")
	}
	kp.metrics["tensor.matmul_gflops"] = float64(ops) / float64(t64)
	kp.metrics["tensor.matmul32_gflops"] = float64(ops) / float64(t32)
	kp.metrics["tensor.matmuli8_gops"] = float64(ops) / float64(t8)
	kp.metrics["tensor.flops_computed"] = float64(ops)
	kp.metrics["tensor.bytes_computed"] = float64(bytes)
	return kp, nil
}
