package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	hpacml "repro"

	"repro/internal/benchmarks/binomial"
	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The binomial application: a 1024-option portfolio priced on a
// 256-step lattice (the test-scale configuration of the repository's
// experiments), annotated with the application's directives plus an
// if clause of the benchmark's own (binomialDirectives).
const (
	binomialOptions = 1024
	binomialSteps   = 256
	// collectCalls accurate portfolio pricings feed the surrogate's
	// training set (collectCalls * binomialOptions samples).
	collectCalls = 4
	trainEpochs  = 40
	// surrogateSeed drives the surrogate's training data, initial
	// weights and shuffling. It is the same in every run, whatever the
	// workload seed: the forward kernel skips zero activations, so ReLU
	// networks trained from different seeds differ up to 1.7x in forward
	// cost, which would measure the network drawn rather than the code.
	// The workload seed varies the inputs the surrogate is applied to.
	surrogateSeed = 1
)

// binomialApp is the application a Region is embedded in: the
// portfolio arrays bound to the region, the trained surrogate and the
// file it was saved to.
type binomialApp struct {
	in       *binomial.Instance
	region   *hpacml.Region
	useModel bool
	// accurateOnly makes the region's if clause false, so Execute runs
	// the accurate path alone: no gather, no capture, no inference.
	accurateOnly bool
	net          *nn.Network
	modelPath    string
}

// newBinomialApp builds the annotated region, collects training data
// through it from portfolios drawn with surrogateSeed, trains the
// surrogate and switches the region to inference.
func newBinomialApp(dir string) (*binomialApp, error) {
	const seed = surrogateSeed
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := binomial.DefaultConfig()
	cfg.NumOptions, cfg.Steps, cfg.Seed = binomialOptions, binomialSteps, seed
	in, err := binomial.New(cfg)
	if err != nil {
		return nil, err
	}
	a := &binomialApp{in: in, modelPath: filepath.Join(dir, "binomial.gmod")}
	dbPath := filepath.Join(dir, "binomial.gh5")
	n := cfg.NumOptions
	a.region, err = hpacml.NewRegion("binomial",
		hpacml.Directives(binomialDirectives(a.modelPath, dbPath)),
		hpacml.BindInt("NOPT", n),
		hpacml.BindArray("S", in.S, n),
		hpacml.BindArray("X", in.X, n),
		hpacml.BindArray("T", in.T, n),
		hpacml.BindArray("prices", in.Prices, n),
		hpacml.BindPredicate("useModel", func() bool { return a.useModel }),
		hpacml.BindPredicate("approx", func() bool { return !a.accurateOnly }),
	)
	if err != nil {
		return nil, err
	}
	for c := 0; c < collectCalls; c++ {
		in.RandomizeOptions(seed*7919 + int64(c))
		if err := a.region.Execute(a.accurate); err != nil {
			a.region.Close()
			return nil, fmt.Errorf("collecting: %w", err)
		}
	}
	if err := a.region.Flush(); err != nil {
		a.region.Close()
		return nil, err
	}
	if a.net, err = trainBinomial(dbPath, seed); err != nil {
		a.region.Close()
		return nil, err
	}
	if err := a.net.Save(a.modelPath); err != nil {
		a.region.Close()
		return nil, err
	}
	a.useModel = true
	return a, nil
}

// binomialDirectives are binomial.Directives with an if(approx) clause
// on the ml directive. With useModel false the predicated region collects
// (gathers into tensors and enqueues a capture record) around the
// accurate path; the if clause gives the accurate path without either.
func binomialDirectives(model, db string) string {
	const ml = "ml(predicated:useModel)"
	return strings.Replace(binomial.Directives(model, db), ml, ml+" if(approx)", 1)
}

func (a *binomialApp) accurate() error {
	a.in.ComputePrices()
	return nil
}

// trainBinomial fits the h16 two-hidden-layer ReLU surrogate (the
// Table IV binomial family) on the collected database.
func trainBinomial(dbPath string, seed int64) (*nn.Network, error) {
	f, err := h5.Open(dbPath)
	if err != nil {
		return nil, err
	}
	xs, err := f.Read("binomial", "inputs")
	if err != nil {
		return nil, err
	}
	ys, err := f.Read("binomial", "outputs")
	if err != nil {
		return nil, err
	}
	if xs, err = xs.Reshape(-1, 3); err != nil {
		return nil, err
	}
	if ys, err = ys.Reshape(-1, 1); err != nil {
		return nil, err
	}
	ds, err := nn.NewDataset(xs, ys)
	if err != nil {
		return nil, err
	}
	net := nn.NewNetwork(seed)
	net.Add(net.NewDense(3, 16), nn.NewActivation(nn.ActReLU),
		net.NewDense(16, 16), nn.NewActivation(nn.ActReLU),
		net.NewDense(16, 1))
	if _, err := net.Fit(ds, nil, nn.TrainConfig{Epochs: trainEpochs, BatchSize: 64, LR: 3e-3, Seed: seed}); err != nil {
		return nil, err
	}
	return net, nil
}

// wideNet is the fixed-seed 16-128-128-8 tanh MLP of the compute-bound
// serving workload.
func wideNet(seed int64) *nn.Network {
	net := nn.NewNetwork(seed)
	net.Add(net.NewDense(16, 128), nn.NewActivation(nn.ActTanh),
		net.NewDense(128, 128), nn.NewActivation(nn.ActTanh),
		net.NewDense(128, 8))
	return net
}

// optionRows draws n binomial option rows (spot, strike, expiry) over
// the application's ranges.
func optionRows(rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, 5+25*rng.Float64(), 1+99*rng.Float64(), 0.25+9.75*rng.Float64())
	}
	return out
}

// uniformRows draws n rows of cols values in [-1, 1).
func uniformRows(rng *rand.Rand, n, cols int) []float64 {
	out := make([]float64, n*cols)
	for i := range out {
		out[i] = 2*rng.Float64() - 1
	}
	return out
}

// forwardRows is the reference the served and embedded outputs must
// equal bit for bit: a direct f64 Network.ForwardInto over the rows.
// Each output row depends only on its input row, so the reference holds
// for any batch the rows are later served in.
func forwardRows(net *nn.Network, rows []float64, in, out int) ([]float64, error) {
	n := len(rows) / in
	x, err := tensor.FromSlice(append([]float64(nil), rows...), n, in)
	if err != nil {
		return nil, err
	}
	y := tensor.New(n, out)
	if err := net.ForwardInto(y, x); err != nil {
		return nil, err
	}
	return append([]float64(nil), y.Data()...), nil
}

// sameBits reports whether a and b hold identical float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
