package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchmarks/binomial"
	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serveapi"
	"repro/internal/serveclient"
)

// The serving workloads drive an in-process server on a loopback
// listener with hpacml-serve's shipped defaults (serve-ingest departs
// from them in one setting, ingestShardRecords), from serveClients
// closed-loop clients with one connection each: a simulation rank waits
// for its reply before sending again.
type serveKind int

const (
	serveRows1  serveKind = iota // binomial surrogate, 1 row per request
	serveWide64                  // 16-128-128-8 tanh MLP, 64 rows per request
	serveIngest                  // capture frames of 64 binomial records
)

const (
	serveClients  = 2
	servePoolRows = 4096 // distinct input rows the clients draw from
	ingestRecords = 64   // records per capture frame
	ingestPool    = 256  // distinct priced records the frames cycle through
	// ingestShardRecords rotates the capture database to a new shard
	// file every so many records. hpacml-serve's default is 0, one file,
	// but at the 0.3-0.8M records/s this workload ingests on a 2-core
	// machine one file grows 1-3 GB in a 20 s run, and reading it back
	// through h5 (which holds every record in memory) takes several GB
	// of heap. 16384 records (about 2.9 MB) per shard bounds both: a
	// closed shard is read back and deleted between windows. The value
	// is the benchmark's choice, not one the repository ships.
	ingestShardRecords = 16384
	modelName          = "m"
	captureDB          = "captures"
)

// serveDefaults are hpacml-serve's flag defaults.
var serveDefaults = serve.Config{
	MaxBatch:       32,
	MaxDelay:       2 * time.Millisecond,
	Workers:        2,
	ReloadInterval: 2 * time.Second,
}

type serveInstance struct {
	kind    serveKind
	seed    int64
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*serveclient.Client
	scraper *http.Client

	// Inference workloads: the model, its widths, rows per request,
	// the input pool and its reference outputs.
	net            *nn.Network
	in, out, rows  int
	pool, expect   []float64
	modelBatchRows int // the batch the nn and tensor probes run at

	// Ingest: the records the frames carry and every acknowledged one.
	dbBase string
	recs   []serveapi.CaptureRecord
	mu     sync.Mutex
	acked  int64
	// Shards below nextShard have been read back and deleted; readBack
	// and readBytes are their record count and size.
	nextShard int
	readBack  int64
	readBytes int64
}

func setupServe(o options, dir string, kind serveKind) (instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &serveInstance{kind: kind, seed: o.seed}
	cfg := serveDefaults
	var specs []serve.ModelSpec
	rng := rand.New(rand.NewSource(o.seed*17 + int64(kind)))
	switch kind {
	case serveRows1:
		app, err := newBinomialApp(dir)
		if err != nil {
			return nil, err
		}
		if err := app.region.Close(); err != nil {
			return nil, err
		}
		s.net, s.in, s.out, s.rows = app.net, 3, 1, 1
		s.pool = optionRows(rng, servePoolRows)
		specs = append(specs, serve.ModelSpec{Name: modelName, Path: app.modelPath})
	case serveWide64:
		s.net, s.in, s.out, s.rows = wideNet(o.seed), 16, 8, 64
		path := filepath.Join(dir, "wide.gmod")
		if err := s.net.Save(path); err != nil {
			return nil, err
		}
		s.pool = uniformRows(rng, servePoolRows, s.in)
		specs = append(specs, serve.ModelSpec{Name: modelName, Path: path})
	case serveIngest:
		s.dbBase = filepath.Join(dir, "capture.gh5")
		cfg.CaptureDBs = []serve.CaptureSpec{{Name: captureDB, Path: s.dbBase, ShardRecords: ingestShardRecords}}
		rows := optionRows(rng, ingestPool)
		scratch := make([]float64, binomialSteps+1)
		cfgB := binomial.DefaultConfig()
		for i := 0; i < ingestPool; i++ {
			r := rows[3*i : 3*i+3]
			price := binomial.PriceAmericanCall(r[0], r[1], r[2], cfgB.RiskFree, cfgB.Volatility, binomialSteps, scratch)
			s.recs = append(s.recs, serveapi.CaptureRecord{Region: "binomial",
				InputShape: []int{1, 3}, Inputs: r, OutputShape: []int{1, 1}, Outputs: []float64{price},
				RuntimeNS: float64(i)})
		}
	}
	if s.net != nil {
		var err error
		if s.expect, err = forwardRows(s.net, s.pool, s.in, s.out); err != nil {
			return nil, err
		}
		s.modelBatchRows = min(serveDefaults.MaxBatch, serveClients*s.rows)
	}

	var err error
	if s.srv, err = serve.NewServer(cfg, specs...); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: serve.NewHandler(s.srv)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	for c := 0; c < serveClients; c++ {
		s.clients = append(s.clients, serveclient.New(s.url, serveclient.WithWire(serveclient.WireBinary)))
	}
	s.scraper = &http.Client{Timeout: 10 * time.Second}
	return s, nil
}

// drive runs every client in a closed loop until the deadline; each
// client fills its own phase.
func (s *serveInstance) drive(d time.Duration, tr *tracer) []*phase {
	deadline := time.Now().Add(d)
	res := make([]*phase, len(s.clients))
	var wg sync.WaitGroup
	for c := range s.clients {
		res[c] = &phase{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(c, deadline, tr.lane(), res[c])
		}(c)
	}
	wg.Wait()
	return res
}

func (s *serveInstance) client(c int, deadline time.Time, ln *lane, res *phase) {
	ctx := context.Background()
	cl := s.clients[c]
	rng := rand.New(rand.NewSource(s.seed*1009 + int64(c)))
	var buf []float64
	for time.Now().Before(deadline) {
		id := ln.id()
		if s.kind == serveIngest {
			slot := rng.Intn(ingestPool / ingestRecords)
			frame := s.recs[slot*ingestRecords : (slot+1)*ingestRecords]
			t0 := time.Now()
			n, err := cl.Capture(ctx, captureDB, frame)
			t1 := time.Now()
			ln.add("serveclient.Client.Capture", id, t0, t1)
			s.ack(n)
			res.attempted++
			if err != nil || n != len(frame) {
				res.fail("capture acknowledged %d of %d records: %v", n, len(frame), err)
				continue
			}
			res.ops = append(res.ops, t1.Sub(t0))
			res.rows += int64(n)
			continue
		}
		slot := rng.Intn(servePoolRows / s.rows)
		lo, hi := slot*s.rows, (slot+1)*s.rows
		t0 := time.Now()
		got, cols, err := cl.InferMatrix(ctx, modelName, s.rows, s.in, s.pool[lo*s.in:hi*s.in], buf)
		t1 := time.Now()
		ln.add("serveclient.Client.InferMatrix", id, t0, t1)
		res.attempted++
		switch {
		case err != nil:
			res.fail("infer: %v", err)
		case cols != s.out || !sameBits(got, s.expect[lo*s.out:hi*s.out]):
			res.fail("rows %d..%d differ from Network.ForwardInto", lo, hi)
		default:
			res.ops = append(res.ops, t1.Sub(t0))
			res.rows += int64(s.rows)
		}
		buf = got
	}
}

func (s *serveInstance) ack(n int) {
	s.mu.Lock()
	s.acked += int64(n)
	s.mu.Unlock()
}

func (s *serveInstance) warm(d time.Duration) error {
	for _, r := range s.drive(d, nil) {
		if r.failed > 0 {
			return fmt.Errorf("warm-up: %s", strings.Join(r.checks, "; "))
		}
	}
	return nil
}

// serverState is what the benchmark reads from the server at the
// edges of a window: the /metrics exposition, the replica pools'
// region accounting and the heap allocation counters.
type serverState struct {
	series         map[string]float64
	region         serveapi.RegionStats
	objects, bytes uint64
}

func (s *serveInstance) state() (serverState, error) {
	var st serverState
	var err error
	if st.series, err = s.scrape(); err != nil {
		return st, err
	}
	for _, snap := range s.srv.Snapshot() {
		st.region = snap.Region
	}
	st.objects, st.bytes = heapAllocs()
	return st, nil
}

func (s *serveInstance) measure(d time.Duration, tr *tracer) (*phase, error) {
	before, err := s.state()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	res := s.drive(d, tr)
	end := time.Now()
	cpu := cpuTime() - cpu0
	after, err := s.state()
	if err != nil {
		return nil, err
	}
	if s.kind == serveIngest {
		if err := s.readBackShards(false); err != nil {
			return nil, err
		}
	}

	p := &phase{busy: end.Sub(start), cpu: cpu, detail: map[string]any{}, extra: map[string]float64{}}
	for _, r := range res {
		p.merge(r)
	}
	delta := func(key string) float64 { return after.series[key] - before.series[key] }
	mean := func(family, labels string) float64 {
		n := delta(family + "_count" + labels)
		if n == 0 {
			return 0
		}
		return delta(family+"_sum"+labels) / n
	}
	// Every request must have travelled as a binary frame: the client
	// falls back to JSON silently.
	endpoint := "infer"
	if s.kind == serveIngest {
		endpoint = "capture"
	}
	if n := delta(`hpacml_wire_requests_total{endpoint="` + endpoint + `",wire="json",dtype="f64"}`); n > 0 {
		p.fail("%v requests fell back to the JSON wire", n)
	}

	x := p.extra
	x["serve.decode_us"] = mean("hpacml_http_stage_seconds", `{stage="decode"}`) * 1e6
	x["serve.encode_us"] = mean("hpacml_http_stage_seconds", `{stage="encode"}`) * 1e6
	x["serve.allocs_per_row"] = float64(after.objects-before.objects) / float64(p.rows)
	x["serve.bytes_per_row"] = float64(after.bytes-before.bytes) / float64(p.rows)
	x["serveclient.round_trip_us"] = meanUs(p.ops)
	if s.kind != serveIngest {
		m := `{model="` + modelName + `"}`
		x["serve.queue_wait_us"] = mean("hpacml_infer_queue_seconds", m) * 1e6
		x["serve.forward_us_per_batch"] = mean("hpacml_infer_forward_seconds", m) * 1e6
		x["serve.mean_batch"] = mean("hpacml_infer_batch_size", m)
		x["serve.rejected"] = delta(`hpacml_infer_requests_total{model="` + modelName + `",outcome="rejected"}`)
		// A row's time from enqueue to completion, less its queue wait,
		// is the forward pass it rode in.
		x["serve.row_forward_us"] = mean("hpacml_infer_latency_seconds", m)*1e6 - x["serve.queue_wait_us"]
		if x["serve.rejected"] > 0 {
			p.fail("%v rows rejected by queue backpressure", x["serve.rejected"])
		}
		if n := delta(`hpacml_infer_requests_total{model="` + modelName + `",outcome="error"}`); n > 0 {
			p.fail("%v rows failed in the server", n)
		}
		rb, ra := before.region, after.region
		if batches := float64(ra.Batches - rb.Batches); batches > 0 {
			x["hpacml.to_tensor_us"] = float64(ra.ToTensor-rb.ToTensor) / 1e3 / batches
			x["hpacml.inference_us"] = float64(ra.BatchInference-rb.BatchInference) / 1e3 / batches
			x["hpacml.from_tensor_us"] = float64(ra.FromTensor-rb.FromTensor) / 1e3 / batches
		}
	}
	p.scraped = histogramDeltas(before.series, after.series)
	p.detail["server_layers"] = x
	return p, nil
}

// histogramDeltas folds the window's change in the stage, queue,
// forward, latency and batch-size histograms (and the request
// counters) into the record.
func histogramDeltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		for _, fam := range []string{"hpacml_http_stage_seconds", "hpacml_infer_queue_seconds",
			"hpacml_infer_forward_seconds", "hpacml_infer_latency_seconds", "hpacml_infer_batch_size",
			"hpacml_infer_requests_total", "hpacml_capture_records_total", "hpacml_capture_batches_total",
			"hpacml_wire_requests_total"} {
			if strings.HasPrefix(k, fam) {
				if d := v - before[k]; d != 0 {
					out[k] = d
				}
			}
		}
	}
	return out
}

// scrape reads the server's /metrics exposition into series -> value.
func (s *serveInstance) scrape() (map[string]float64, error) {
	resp, err := s.scraper.Get(s.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (s *serveInstance) layers(p *phase, tr *tracer) (map[string]float64, *split, error) {
	m := map[string]float64{}
	for k, v := range p.extra {
		m[k] = v
	}
	ln := tr.lane()
	if s.kind == serveIngest {
		// The capture layer alone: Server.Capture on the same frames,
		// without HTTP.
		frame := s.recs[:ingestRecords]
		d, err := timeCalls(ln, "serve.Server.Capture", probeBudget, func() error {
			n, err := s.srv.Capture(captureDB, frame)
			s.ack(n)
			if err == nil && n != len(frame) {
				err = fmt.Errorf("capture accepted %d of %d records", n, len(frame))
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		m["serve.capture_us_per_batch"] = float64(d) / 1e3
		if err := s.readBackShards(false); err != nil {
			return nil, nil, err
		}
		// Both h5 metrics are per record ingested since set-up, so a
		// faster ingest path, which writes more in the same time, does
		// not raise them.
		bytes := s.readBytes
		for k := s.nextShard; ; k++ {
			fi, err := os.Stat(h5.ShardPath(s.dbBase, k))
			if err != nil {
				break
			}
			bytes += fi.Size()
		}
		s.mu.Lock()
		acked := float64(s.acked)
		s.mu.Unlock()
		m["h5.bytes_per_record"] = float64(bytes) / acked
		m["h5.shards_per_1e5_records"] = float64(s.srv.CaptureSnapshot()[0].Shards) / acked * 1e5
		m["serveclient.transport_us"] = m["serveclient.round_trip_us"] - m["serve.decode_us"] - m["serve.capture_us_per_batch"] - m["serve.encode_us"]
		sp := newSplit("POST /v1/capture (64 records)", p.ops, map[string]float64{
			"serve.decode":  m["serve.decode_us"],
			"serve.capture": m["serve.capture_us_per_batch"],
			"serve.encode":  m["serve.encode_us"],
		})
		return m, sp, nil
	}
	probe, detail, err := probeLayers(s.net, s.pool, s.in, s.out, s.modelBatchRows, ln)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range probe {
		m[k] = v
	}
	p.detail["probe"] = detail
	m["serveclient.transport_us"] = m["serveclient.round_trip_us"] - m["serve.decode_us"] -
		m["serve.queue_wait_us"] - m["serve.row_forward_us"] - m["serve.encode_us"]
	sp := newSplit(fmt.Sprintf("POST /v1/infer (%d rows)", s.rows), p.ops, map[string]float64{
		"serve.decode":      m["serve.decode_us"],
		"serve.queue_wait":  m["serve.queue_wait_us"],
		"serve.row_forward": m["serve.row_forward_us"],
		"serve.encode":      m["serve.encode_us"],
	})
	delete(m, "serve.row_forward_us")
	return m, sp, nil
}

// readBackShards reads back the capture shards the writer has closed
// (every shard, when all is set), counting their records, and deletes
// the closed ones, so the database on disk stays about one window
// large however long the run. It runs between windows, when no capture
// request is in flight.
func (s *serveInstance) readBackShards(all bool) error {
	shards := s.srv.CaptureSnapshot()[0].Shards
	last := shards - 1 // the shard the writer appends to
	if all {
		last = shards
	}
	for ; s.nextShard < last; s.nextShard++ {
		path := h5.ShardPath(s.dbBase, s.nextShard)
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		f, err := h5.Open(path)
		if err != nil {
			return err
		}
		s.readBack += int64(f.NumRecords("binomial", "inputs"))
		s.readBytes += fi.Size()
		if s.nextShard < shards-1 {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// verify finishes reading the capture database back after an ingest
// run: every acknowledged record must be there (ingest flushes before
// each acknowledgement).
func (s *serveInstance) verify(rec *record) error {
	if s.kind != serveIngest {
		return nil
	}
	if err := s.readBackShards(true); err != nil {
		return err
	}
	s.mu.Lock()
	acked := s.acked
	s.mu.Unlock()
	rec.Detail["records_acknowledged"] = acked
	rec.Detail["records_read_back"] = s.readBack
	if s.readBack != acked {
		rec.Result.Failed++
		rec.Checks = append(rec.Checks, fmt.Sprintf("read back %d records, %d acknowledged", s.readBack, acked))
	}
	return nil
}

func (s *serveInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.scraper.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}
