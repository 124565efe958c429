package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/tensor"
)

// slabOf returns rows consecutive inputVec rows starting at seed, as
// one flat [rows, width] slab.
func slabOf(seed, rows, width int) []float64 {
	s := make([]float64, 0, rows*width)
	for k := 0; k < rows; k++ {
		s = append(s, inputVec(seed+k, width)...)
	}
	return s
}

// forwardEachRow is the reference the served outputs must reproduce
// bit for bit: Network.ForwardInto on every row as its own [1, in]
// batch.
func forwardEachRow(t *testing.T, net *nn.Network, in []float64, width, outW int) []float64 {
	t.Helper()
	rows := len(in) / width
	want := make([]float64, rows*outW)
	for r := 0; r < rows; r++ {
		x, err := tensor.FromSlice(in[r*width:(r+1)*width], 1, width)
		if err != nil {
			t.Fatal(err)
		}
		y := tensor.New(1, outW)
		if err := net.ForwardInto(y, x); err != nil {
			t.Fatal(err)
		}
		copy(want[r*outW:], y.Data())
	}
	return want
}

// engineEachRow runs a reference engine on every row as its own
// [1, in] batch.
func engineEachRow(t *testing.T, e hpacml.Engine, in []float64, width, outW int) []float64 {
	t.Helper()
	rows := len(in) / width
	want := make([]float64, rows*outW)
	for r := 0; r < rows; r++ {
		x, err := tensor.FromSlice(in[r*width:(r+1)*width], 1, width)
		if err != nil {
			t.Fatal(err)
		}
		y := tensor.New(1, outW)
		if err := e.Infer(context.Background(), x, y); err != nil {
			t.Fatal(err)
		}
		copy(want[r*outW:], y.Data())
	}
	return want
}

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestRowSlabsMatchForwardInto: concurrent requests of 1, 7, 64 and 100
// rows — 100 is more than MaxBatch, so its ranges split across batches
// and workers — come back bit-identical to ForwardInto on each row, and
// the region counters of /v1/stats and /metrics count exactly the rows
// served.
func TestRowSlabsMatchForwardInto(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	const in, outW = 6, 3
	path := saveMLP(t, dir, "m.gmod", 31, in, 32, 32, outW)
	net, err := nn.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// QueueCap holds every row of the concurrent requests at once, so
	// none is rejected however the workers are scheduled.
	s, err := NewServer(Config{MaxBatch: 32, MaxDelay: time.Millisecond, QueueCap: 1024, Workers: 2},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sizes := []int{1, 7, 64, 100}
	const rounds = 3
	var wg sync.WaitGroup
	errc := make(chan error, len(sizes)*rounds)
	total := 0
	for round := 0; round < rounds; round++ {
		for i, rows := range sizes {
			total += rows
			x := slabOf(1000*round+100*i, rows, in)
			want := forwardEachRow(t, net, x, in, outW)
			wg.Add(1)
			go func() {
				defer wg.Done()
				y := make([]float64, rows*outW)
				if _, err := s.inferRows("m", rows, x, y, nil); err != nil {
					errc <- err
					return
				}
				for j := range want {
					if math.Float64bits(y[j]) != math.Float64bits(want[j]) {
						errc <- fmt.Errorf("%d-row request: value %d = %v, want %v", rows, j, y[j], want[j])
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	snap := s.Snapshot()[0]
	reg := snap.Region
	for name, got := range map[string]int{
		"Invocations": reg.Invocations, "Inferences": reg.Inferences,
		"BatchedInvocations": reg.BatchedInvocations, "TrustedRows": reg.TrustedRows,
	} {
		if got != total {
			t.Errorf("region %s = %d, want %d rows", name, got, total)
		}
	}
	if snap.Completed != uint64(total) || uint64(reg.Batches) != snap.Batches {
		t.Errorf("completed %d (want %d), region batches %d vs served %d", snap.Completed, total, reg.Batches, snap.Batches)
	}
	if reg.BatchInference <= 0 || reg.ToTensor <= 0 || reg.FromTensor <= 0 {
		t.Errorf("phase timings not accumulated: %+v", reg)
	}
	for size := range snap.BatchHist {
		var n int
		fmt.Sscan(size, &n)
		if n > 32 {
			t.Errorf("batch of %d rows exceeds MaxBatch 32", n)
		}
	}
	exp := string(s.Metrics().AppendPrometheus(nil))
	for _, series := range []string{
		`hpacml_region_rows_total{model="m",verdict="trusted"}`,
		`hpacml_region_inferences_total{model="m"}`,
		`hpacml_infer_requests_total{model="m",outcome="ok"}`,
		`hpacml_infer_queue_seconds_count{model="m"}`,
	} {
		if v := metricValue(t, exp, series); v != float64(total) {
			t.Errorf("%s = %v, want %d", series, v, total)
		}
	}
	if v := metricValue(t, exp, `hpacml_queue_depth{model="m"}`); v != 0 {
		t.Errorf("queue depth %v after every request returned", v)
	}
}

// TestServedPrecisionMatchesEngine: a spec with F32, I8 or an Ensemble
// serves exactly what a LocalEngine / EnsembleEngine built with the
// same options returns on the same rows.
func TestServedPrecisionMatchesEngine(t *testing.T) {
	dir := t.TempDir()
	const in, outW = 5, 2
	path := saveMLP(t, dir, "m.gmod", 41, in, 16, outW)
	member := saveMLP(t, dir, "m2.gmod", 42, in, 16, outW)
	net, err := nn.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	calibIn, _ := tensor.FromSlice(slabOf(500, 400, in), 400, in)
	calib, err := hpacml.FitQuant(net, calibIn, hpacml.QuantFitConfig{RTol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.SaveQuant(nn.QuantPath(path)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		spec ModelSpec
		ref  func() (hpacml.Engine, error)
	}{
		{"f32", ModelSpec{Path: path, F32: true}, func() (hpacml.Engine, error) {
			return hpacml.NewLocalEngine(path, hpacml.WithFloat32Inference()), nil
		}},
		{"i8", ModelSpec{Path: path, I8: true}, func() (hpacml.Engine, error) {
			return hpacml.NewLocalEngine(path, hpacml.WithInt8Inference()), nil
		}},
		{"ensemble", ModelSpec{Path: path, Ensemble: []string{member}}, func() (hpacml.Engine, error) {
			return hpacml.NewLocalEnsemble(path, member)
		}},
	}
	const rows = 40
	x := slabOf(7, rows, in)
	f64 := forwardEachRow(t, net, x, in, outW)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hpacml.ClearModelCache()
			tc.spec.Name = "m"
			s, err := NewServer(Config{MaxBatch: 16, MaxDelay: time.Millisecond, Workers: 2}, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ref, err := tc.ref()
			if err != nil {
				t.Fatal(err)
			}
			want := engineEachRow(t, ref, x, in, outW)
			if c, ok := ref.(io.Closer); ok {
				c.Close()
			}
			got := make([]float64, rows*outW)
			if _, err := s.inferRows("m", rows, x, got, nil); err != nil {
				t.Fatal(err)
			}
			sameBits(t, tc.name, got, want)
			differs := false
			for i := range f64 {
				differs = differs || math.Float64bits(got[i]) != math.Float64bits(f64[i])
			}
			if !differs {
				t.Fatalf("%s outputs are bit-identical to float64: the spec's engine path was not taken", tc.name)
			}
		})
	}
}

// TestWholeRequestRejection: with the worker stalled, a request is
// admitted whole while fewer than QueueCap rows are queued — even one
// that overshoots the cap — and rejected whole once they reach it; none
// of a rejected request's rows ever runs.
func TestWholeRequestRejection(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 43, 3, 8, 1)
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Nanosecond, QueueCap: 4, Workers: 1,
		batchHook: func(string, int) {
			entered <- struct{}{}
			<-release
		}},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.models["m"]

	results := make(chan error, 3)
	submit := func(rows int) {
		go func() {
			_, err := s.inferRows("m", rows, slabOf(rows, rows, 3), nil, nil)
			results <- err
		}()
	}
	submit(1)
	<-entered // the worker holds the first row in its stalled batch
	submit(3)
	waitFor(t, func() bool { return m.depth.Load() == 3 })
	submit(10) // 3 < QueueCap rows queued: admitted whole, 13 queued
	waitFor(t, func() bool { return m.depth.Load() == 13 })

	_, err = s.inferRows("m", 2, slabOf(0, 2, 3), nil, nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if d := m.depth.Load(); d != 13 {
		t.Fatalf("rejected request changed the queue depth to %d", d)
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()[0]
	if snap.Completed != 14 || snap.Rejected != 2 || snap.Region.TrustedRows != 14 {
		t.Fatalf("completed %d rejected %d region rows %d, want 14, 2 and 14",
			snap.Completed, snap.Rejected, snap.Region.TrustedRows)
	}
}

// TestRequestLargerThanQueueCap: on an idle server a request of many
// times QueueCap rows is admitted and served in full.
func TestRequestLargerThanQueueCap(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 44, 4, 8, 2)
	net, err := nn.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{MaxBatch: 2, MaxDelay: time.Millisecond, QueueCap: 4, Workers: 1},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const rows = 50
	x := slabOf(3, rows, 4)
	got := make([]float64, rows*2)
	if _, err := s.inferRows("m", rows, x, got, nil); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "50-row request", got, forwardEachRow(t, net, x, 4, 2))
	if snap := s.Snapshot()[0]; snap.Completed != rows || snap.Rejected != 0 || snap.BatchHist["2"] != rows/2 {
		t.Fatalf("snapshot %+v, want %d rows in %d batches of 2", snap, rows, rows/2)
	}
}

// TestHotReloadRowSlabs: after an ensemble member is retrained, every
// worker swaps at its next batch boundary — multi-row requests spread
// over both workers all answer with the new member set, exactly as a
// fresh EnsembleEngine over the files does.
func TestHotReloadRowSlabs(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	const in, outW = 4, 2
	path := saveMLP(t, dir, "a.gmod", 51, in, 8, outW)
	member := saveMLP(t, dir, "b.gmod", 52, in, 8, outW)
	s, err := NewServer(Config{MaxBatch: 8, MaxDelay: time.Millisecond, QueueCap: 256, Workers: 2},
		ModelSpec{Name: "m", Path: path, Ensemble: []string{member}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := slabOf(9, 32, in)
	serve := func() []float64 {
		t.Helper()
		var wg sync.WaitGroup
		outs := make([][]float64, 4)
		for c := range outs {
			outs[c] = make([]float64, 32*outW)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.inferRows("m", 32, x, outs[c], nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for c := 1; c < len(outs); c++ {
			sameBits(t, "concurrent copies of one request", outs[c], outs[0])
		}
		return outs[0]
	}
	reference := func() []float64 {
		t.Helper()
		e, err := hpacml.NewLocalEnsemble(path, member)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		return engineEachRow(t, e, x, in, outW)
	}

	before := serve()
	sameBits(t, "before reload", before, reference())
	if err := mlp(53, in, 8, outW).Save(member); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckReload(); err != nil {
		t.Fatal(err)
	}
	// The reference resolves the networks the reload published, which
	// were loaded from the new files.
	want := reference()
	differs := false
	for i := range want {
		differs = differs || math.Float64bits(want[i]) != math.Float64bits(before[i])
	}
	if !differs {
		t.Fatal("retrained member did not change the ensemble's outputs")
	}
	for k := 0; k < 3; k++ {
		sameBits(t, "after reload", serve(), want)
	}
	if snap := s.Snapshot()[0]; snap.Generation != 1 || snap.Reloads != 1 {
		t.Fatalf("generation %d reloads %d, want 1/1", snap.Generation, snap.Reloads)
	}
}

// TestJSONBodyLimits: the JSON wire gets the frame wire's armor — a
// body longer than serveapi.MaxFrameLen is 413,
// "inputs" is held to maxInferRows, and a ragged request is a 400 that
// runs none of its rows.
func TestJSONBodyLimits(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 45, 3, 8, 1)
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	do := func(target string, body io.Reader) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, body)
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = -1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// An endless JSON array, cut only by the body limit. Both endpoints
	// decode through decodeJSONBody; one 64 MiB stream checks it.
	long := io.MultiReader(strings.NewReader(`{"model":"m","inputs":[`), io.LimitReader(&repeatReader{s: "[0],"}, serveapi.MaxFrameLen))
	if rec := do("/v1/infer", long); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("overlong JSON body: %d %s", rec.Code, rec.Body)
	}

	var buf bytes.Buffer
	buf.WriteString(`{"model":"m","inputs":[`)
	for i := 0; i <= maxInferRows; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("[]")
	}
	buf.WriteString("]}")
	if rec := do("/v1/infer", &buf); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit") {
		t.Fatalf("row-cap JSON: %d %s", rec.Code, rec.Body)
	}

	ragged, _ := json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8}}})
	if rec := do("/v1/infer", bytes.NewReader(ragged)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "row 2") {
		t.Fatalf("ragged JSON: %d %s", rec.Code, rec.Body)
	}
	if snap := s.Snapshot()[0]; snap.Completed != 0 || snap.Batches != 0 {
		t.Fatalf("a rejected request ran rows: %+v", snap)
	}

	ok, _ := json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{{1, 2, 3}, {4, 5, 6}}})
	rec := do("/v1/infer", bytes.NewReader(ok))
	var resp InferResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Outputs) != 2 {
		t.Fatalf("well-formed JSON rows: %d %s", rec.Code, rec.Body)
	}
	for i, row := range [][]float64{{1, 2, 3}, {4, 5, 6}} {
		sameBits(t, "JSON row", resp.Outputs[i], directForward(t, path, row))
	}
}

// repeatReader yields s over and over.
type repeatReader struct {
	s   string
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], r.s[r.off:])
		n += k
		r.off = (r.off + k) % len(r.s)
	}
	return n, nil
}
