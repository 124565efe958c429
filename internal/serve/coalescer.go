package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	hpacml "repro"

	"repro/internal/tensor"
)

// request is one submitted row slab: rows of model inputs in in, the
// matching output rows in out. Several workers may serve its ranges at
// once, each writing only its own rows of out. left counts the rows not
// yet served; the caller's Wait on it is the happens-before edge for
// out and for the fields under mu.
type request struct {
	in, out []float64
	enq     time.Time
	left    sync.WaitGroup

	mu      sync.Mutex
	err     error         // the first failed batch's error
	queued  time.Duration // enqueue -> batch cut, the longest of its ranges
	forward time.Duration // the longest batch forward its ranges rode in
}

// finish records one served range of k rows and releases it.
func (req *request) finish(k int, queued, forward time.Duration, err error) {
	req.mu.Lock()
	if req.err == nil {
		req.err = err
	}
	req.queued = max(req.queued, queued)
	req.forward = max(req.forward, forward)
	req.mu.Unlock()
	req.left.Add(-k)
}

// rowRange is rows [lo, hi) of one request: the unit the queue carries
// and a batch is packed from.
type rowRange struct {
	req    *request
	lo, hi int
}

func (r rowRange) rows() int { return r.hi - r.lo }

// replica is one worker's execution context: its own engine (engine
// scratch is single-threaded), the packed batch buffers, and the
// hpacml.Stats it publishes to the model's stats after every batch.
type replica struct {
	idx    int
	engine hpacml.Engine
	gen    uint64

	batch      []rowRange
	n          int // rows in batch
	xbuf, ybuf []float64
	x, y       []*tensor.Tensor // [n, FIN] / [n, FOUT] views, built on first use
	stats      hpacml.Stats
}

// newReplica builds worker idx's engine — an ensemble over every member
// file, or one local engine at the spec's precision — and warms it, so
// a bad model fails construction, not the first request.
func newReplica(spec ModelSpec, members []string, idx, in, out, maxBatch int) (*replica, error) {
	rep := &replica{
		idx:   idx,
		batch: make([]rowRange, 0, maxBatch),
		xbuf:  make([]float64, maxBatch*in),
		ybuf:  make([]float64, maxBatch*out),
		x:     make([]*tensor.Tensor, maxBatch+1),
		y:     make([]*tensor.Tensor, maxBatch+1),
	}
	var opts []hpacml.LocalOption
	if spec.F32 {
		opts = append(opts, hpacml.WithFloat32Inference())
	}
	if spec.I8 {
		opts = append(opts, hpacml.WithInt8Inference())
	}
	var err error
	if len(members) > 1 {
		rep.engine, err = hpacml.NewLocalEnsemble(members...)
	} else {
		rep.engine = hpacml.NewLocalEngine(members[0], opts...)
	}
	if err == nil {
		if err = rep.engine.Warmup(context.Background(), []int{1, in}); err != nil {
			rep.close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("serve: model %q replica %d: %w", spec.Name, idx, err)
	}
	return rep, nil
}

// close releases the engine when it holds resources (ensembles).
func (rep *replica) close() {
	if c, ok := rep.engine.(io.Closer); ok {
		c.Close()
	}
}

// take appends as many of r's rows as the batch has room for and
// returns the rows that did not fit.
func (rep *replica) take(m *model, r rowRange, maxBatch int) rowRange {
	k := min(r.rows(), maxBatch-rep.n)
	rep.batch = append(rep.batch, rowRange{r.req, r.lo, r.lo + k})
	rep.n += k
	m.depth.Add(int64(-k))
	return rowRange{r.req, r.lo + k, r.hi}
}

// worker is one replica's serving loop: block for a batch's first
// range, then keep filling until MaxBatch rows have accumulated or
// MaxDelay has passed since that first arrival — whichever trips first
// cuts the batch. A range that does not fit is split and its tail
// starts this worker's next batch. Workers exit once Close has stopped
// the server and the queue is drained, so Close never drops queued
// work.
func (s *Server) worker(m *model, rep *replica) {
	defer s.wg.Done()
	maxBatch := s.cfg.MaxBatch
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var carry rowRange
	for {
		rep.batch, rep.n = rep.batch[:0], 0
		if carry.rows() == 0 {
			select {
			case carry = <-m.queue:
			case <-s.stop: // nothing more can arrive: drain, then exit
				select {
				case carry = <-m.queue:
				default:
					return
				}
			}
		}
		carry = rep.take(m, carry, maxBatch)
		timer.Reset(s.cfg.MaxDelay)
	fill:
		for rep.n < maxBatch {
			select {
			case r := <-m.queue:
				carry = rep.take(m, r, maxBatch)
			case <-timer.C:
				break fill
			}
		}
		timer.Stop()
		s.runBatch(m, rep)
	}
}

// runBatch serves one cut batch: pack its ranges into the [n, FIN]
// tensor, run the engine once, and copy each range's output rows
// straight into its request's slab. A pending hot reload is applied
// first — the batch boundary is the only point where the
// single-threaded engine can safely swap models; Refresh re-resolves
// from the shared cache, where checkReload published the validated
// network, so the swap never re-reads disk. The phases are accounted
// as Region.ExecuteBatch accounts them; a failed batch counts its
// staging and engine time and nothing else.
func (s *Server) runBatch(m *model, rep *replica) {
	var err error
	if gen := m.gen.Load(); gen != rep.gen {
		if r, ok := rep.engine.(interface{ Refresh() }); ok {
			r.Refresh()
		}
		if err = rep.engine.Warmup(context.Background(), []int{1, m.in}); err == nil {
			rep.gen = gen
		}
	}
	if s.cfg.batchHook != nil {
		s.cfg.batchHook(m.name, rep.n)
	}
	n, st := rep.n, &rep.stats
	if rep.x[n] == nil {
		rep.x[n], _ = tensor.Wrap(rep.xbuf[:n*m.in], n, m.in)
		rep.y[n], _ = tensor.Wrap(rep.ybuf[:n*m.out], n, m.out)
	}
	cut := time.Now()
	if err == nil {
		xd := rep.x[n].Data()
		for _, r := range rep.batch {
			xd = xd[copy(xd, r.req.in[r.lo*m.in:r.hi*m.in]):]
		}
		staged := time.Now()
		st.ToTensor += staged.Sub(cut)
		err = rep.engine.Infer(context.Background(), rep.x[n], rep.y[n])
		inferred := time.Now()
		st.BatchInference += inferred.Sub(staged)
		if err == nil {
			yd := rep.y[n].Data()
			for _, r := range rep.batch {
				yd = yd[copy(r.req.out[r.lo*m.out:r.hi*m.out], yd):]
			}
			st.FromTensor += time.Since(inferred)
			// Server replicas configure no trust gate: every row is trusted.
			st.Invocations += n
			st.Inferences += n
			st.Batches++
			st.BatchedInvocations += n
			st.TrustedRows += n
		}
	}
	end := time.Now()
	m.stats.observe(rep.idx, rep.stats, rep.batch, n, cut, end, err)
	for _, r := range rep.batch {
		r.req.finish(r.rows(), cut.Sub(r.req.enq), end.Sub(cut), err)
	}
}
