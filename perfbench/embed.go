package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"
)

// embed-binomial: a single-threaded application loop calls
// Region.Execute in inference mode on the binomial portfolio. After
// each window's surrogate calls the loop prices portfolios on the
// accurate path, which gives the speedup and the surrogate's QoI error.
const (
	embedPool = 8 // distinct portfolios the loop cycles through
	// accurateShare is the accurate-path time each window adds, as a
	// share of its surrogate time (at least one call).
	accurateShare = 0.1
	// qoiBound is the largest per-portfolio price RMSE a surrogate call
	// may have against the accurate prices before it counts as failed.
	qoiBound = 2.0
	// embedProcs is GOMAXPROCS while the application loop runs: one,
	// as for a simulation that runs one single-threaded rank per core,
	// so the region's parallel loops run inline. Set-up (collection and
	// training) keeps every core.
	embedProcs = 1
)

type embedInstance struct {
	app     *binomialApp
	pool    [][]float64 // per portfolio: option rows (spot, strike, expiry)
	expect  [][]float64 // per portfolio: the surrogate prices, from ForwardInto
	accRef  [][]float64 // per portfolio: accurate prices once computed
	accNext int
	// accOwed is the accurate-path time the run still owes:
	// accurateShare of every measured window, less the accurate calls
	// made so far. A call lasts a few hundred milliseconds, longer than
	// a window, so most windows make none.
	accOwed time.Duration
	allocs  []metrics.Sample
	procs   int    // GOMAXPROCS before the loop, restored by close
	rot     *rotor // moves the loop between CPUs; nil when it cannot
}

func setupEmbed(o options, dir string) (instance, error) {
	app, err := newBinomialApp(dir)
	if err != nil {
		return nil, err
	}
	e := &embedInstance{app: app, accRef: make([][]float64, embedPool),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
	rng := rand.New(rand.NewSource(o.seed*31 + 7))
	for k := 0; k < embedPool; k++ {
		rows := optionRows(rng, binomialOptions)
		exp, err := forwardRows(app.net, rows, 3, 1)
		if err != nil {
			app.region.Close()
			return nil, err
		}
		e.pool = append(e.pool, rows)
		e.expect = append(e.expect, exp)
	}
	return e, nil
}

// stage loads portfolio k into the arrays bound to the region.
func (e *embedInstance) stage(k int) {
	rows, in := e.pool[k], e.app.in
	for i := range in.S {
		in.S[i], in.X[i], in.T[i] = rows[3*i], rows[3*i+1], rows[3*i+2]
	}
}

func (e *embedInstance) warm(d time.Duration) error {
	e.procs = runtime.GOMAXPROCS(embedProcs)
	e.rot = startRotor()
	end := time.Now().Add(d)
	for k := 0; time.Now().Before(end); k++ {
		e.rot.tick()
		e.stage(k % embedPool)
		if err := e.app.region.Execute(nil); err != nil {
			return err
		}
	}
	return nil
}

func (e *embedInstance) mallocs() uint64 {
	metrics.Read(e.allocs)
	return e.allocs[0].Value.Uint64()
}

func (e *embedInstance) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{detail: map[string]any{}, extra: map[string]float64{}}
	ln := tr.lane()
	region, in := e.app.region, e.app.in
	region.ResetStats()
	var allocs uint64

	start := time.Now()
	deadline := start.Add(d)
	cpu0 := cpuTime()
	for i := 0; time.Now().Before(deadline); i++ {
		e.rot.tick()
		k := i % embedPool
		e.stage(k)
		var a0 uint64
		if ln != nil {
			a0 = e.mallocs()
		}
		id := ln.id()
		t0 := time.Now()
		err := region.Execute(nil)
		t1 := time.Now()
		if ln != nil {
			allocs += e.mallocs() - a0
		}
		ln.add("hpacml.Region.Execute", id, t0, t1)
		p.attempted++
		switch {
		case err != nil:
			p.fail("surrogate call: %v", err)
		case !sameBits(in.Prices, e.expect[k]):
			p.fail("surrogate prices for portfolio %d differ from Network.ForwardInto", k)
		default:
			p.ops = append(p.ops, t1.Sub(t0))
			p.busy += t1.Sub(t0)
			p.rows += int64(len(in.Prices))
		}
	}
	p.cpu = cpuTime() - cpu0

	// The accurate calls follow the surrogate calls of the window rather
	// than sit among them: a lattice pricing keeps both cores busy for
	// a few hundred milliseconds, which would slow the surrogate calls
	// that follow it. A traced window makes at least one, for the
	// speedup and QoI error it reports.
	var accTimes []time.Duration
	var sqErr float64
	var sqN int
	e.accOwed += time.Duration(accurateShare * float64(d))
	for e.accOwed > 0 || (ln != nil && len(accTimes) == 0) {
		e.rot.tick()
		k := e.accNext % embedPool
		e.accNext++
		e.stage(k)
		e.app.accurateOnly = true
		id := ln.id()
		t0 := time.Now()
		err := region.Execute(e.app.accurate)
		t1 := time.Now()
		e.app.accurateOnly = false
		ln.add("hpacml.Region.Execute accurate", id, t0, t1)
		e.accOwed -= t1.Sub(t0)
		accTimes = append(accTimes, t1.Sub(t0))
		p.attempted++
		if err != nil {
			p.fail("accurate call: %v", err)
			continue
		}
		if err := e.checkAccurate(k); err != nil {
			p.fail("accurate call on portfolio %d: %v", k, err)
			continue
		}
		var sq float64
		for j, v := range in.Prices {
			diff := e.expect[k][j] - v
			sq += diff * diff
		}
		sqErr += sq
		sqN += len(in.Prices)
		if rmse := math.Sqrt(sq / float64(len(in.Prices))); rmse > qoiBound {
			p.fail("surrogate RMSE %.3f on portfolio %d exceeds %.1f", rmse, k, qoiBound)
		}
	}

	st := region.Stats()
	calls := float64(st.Inferences)
	if calls == 0 {
		return nil, fmt.Errorf("embed-binomial: no surrogate call in %v", d)
	}
	p.detail["accurate_calls"] = len(accTimes)
	p.detail["surrogate_calls"] = st.Inferences
	if sqN > 0 {
		p.extra["speedup_vs_accurate"] = quantileUs(accTimes, 0.5) / quantileUs(p.ops, 0.5)
		p.extra["qoi_rmse"] = math.Sqrt(sqErr / float64(sqN))
		p.detail["speedup_vs_accurate"] = p.extra["speedup_vs_accurate"]
		p.detail["qoi_rmse"] = p.extra["qoi_rmse"]
	}
	if ln == nil {
		return p, nil
	}
	if sqN == 0 {
		return nil, fmt.Errorf("embed-binomial: no checked accurate call in %v", d)
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	p.extra["hpacml.to_tensor_us"] = us(st.ToTensor) / calls
	p.extra["hpacml.inference_us"] = us(st.Inference) / calls
	p.extra["hpacml.from_tensor_us"] = us(st.FromTensor) / calls
	p.extra["hpacml.accurate_us"] = us(st.Accurate) / float64(st.AccurateRuns)
	p.extra["hpacml.allocs_per_call"] = float64(allocs) / calls
	return p, nil
}

// checkAccurate holds the accurate prices of portfolio k to the first
// ones computed for it, bit for bit, and to being finite and
// non-negative.
func (e *embedInstance) checkAccurate(k int) error {
	prices := e.app.in.Prices
	for j, v := range prices {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("price %d is %v", j, v)
		}
	}
	if e.accRef[k] == nil {
		e.accRef[k] = append([]float64(nil), prices...)
		return nil
	}
	if !sameBits(prices, e.accRef[k]) {
		return fmt.Errorf("prices differ from the first accurate run")
	}
	return nil
}

func (e *embedInstance) layers(p *phase, tr *tracer) (map[string]float64, *split, error) {
	m := map[string]float64{}
	for k, v := range p.extra {
		m[k] = v
	}
	var pool []float64
	for _, rows := range e.pool {
		pool = append(pool, rows...)
	}
	probe, detail, err := probeLayers(e.app.net, pool, 3, 1, binomialOptions, tr.lane())
	if err != nil {
		return nil, nil, err
	}
	for k, v := range probe {
		m[k] = v
	}
	p.detail["probe"] = detail
	sp := newSplit("Region.Execute (surrogate)", p.ops, map[string]float64{
		"hpacml.to_tensor":   m["hpacml.to_tensor_us"],
		"hpacml.inference":   m["hpacml.inference_us"],
		"hpacml.from_tensor": m["hpacml.from_tensor_us"],
	})
	return m, sp, nil
}

func (e *embedInstance) verify(rec *record) error {
	rec.Detail["loop_gomaxprocs"] = runtime.GOMAXPROCS(0)
	if e.rot != nil {
		rec.Detail["loop_cpus"] = e.rot.cpus
	}
	return nil
}

func (e *embedInstance) close() error {
	e.rot.stop()
	if e.procs > 0 {
		runtime.GOMAXPROCS(e.procs)
	}
	return e.app.region.Close()
}
