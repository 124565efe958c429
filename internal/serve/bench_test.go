package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/tensor"
)

// benchWidths is a mid-sized MLP surrogate: big enough that the model
// call dominates staging, the regime where coalescing pays.
var benchWidths = []int{16, 128, 128, 8}

// clients is the concurrent-caller count both benchmark arms serve.
const clients = 64

// BenchmarkCoalescedVsSerial is the acceptance benchmark: N concurrent
// single-invocation clients served through the micro-batching coalescer
// versus the same clients serialized through one engine's [1, FIN]
// Infer behind a mutex (engine scratch is single-threaded, so that is
// the only correct alternative without a pool). ns/op is per completed
// request; the coalesced number must be at least 2x better under
// concurrent load.
func BenchmarkCoalescedVsSerial(b *testing.B) {
	path := saveBenchModel(b)
	in, out := benchWidths[0], benchWidths[len(benchWidths)-1]
	inputs := make([][]float64, 64)
	for k := range inputs {
		inputs[k] = inputVec(k, in)
	}

	b.Run("serial-mutex", func(b *testing.B) {
		hpacml.ClearModelCache()
		ctx := context.Background()
		e := hpacml.NewLocalEngine(path)
		if err := e.Warmup(ctx, []int{1, in}); err != nil {
			b.Fatal(err)
		}
		x, y := tensor.New(1, in), tensor.New(1, out)
		var mu sync.Mutex
		var k int
		b.SetParallelism(clients / runtime.GOMAXPROCS(0))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]float64, out)
			for pb.Next() {
				mu.Lock()
				k++
				copy(x.Data(), inputs[k%len(inputs)])
				if err := e.Infer(ctx, x, y); err != nil {
					mu.Unlock()
					b.Error(err)
					return
				}
				copy(buf, y.Data())
				mu.Unlock()
			}
		})
	})

	b.Run("coalesced", func(b *testing.B) {
		hpacml.ClearModelCache()
		workers := runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
		s, err := NewServer(Config{
			MaxBatch: 64,
			MaxDelay: 100 * time.Microsecond,
			QueueCap: 1024,
			Workers:  workers,
		}, ModelSpec{Name: "m", Path: path})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var k int64
		var mu sync.Mutex
		next := func() []float64 {
			mu.Lock()
			k++
			v := inputs[k%int64(len(inputs))]
			mu.Unlock()
			return v
		}
		b.SetParallelism(clients / runtime.GOMAXPROCS(0))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := s.Infer("m", next()); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		snap := s.Snapshot()[0]
		if snap.Batches > 0 {
			b.ReportMetric(snap.MeanBatch, "mean-batch")
		}
	})
}

// BenchmarkRowSlab serves row-slab requests of 1 and 64 rows from
// concurrent clients through the coalescer and reports the whole
// process's allocations per served row. A request allocates a fixed
// amount whatever its row count (its request record, nothing per row),
// so allocs/row and B/row fall as requests widen.
func BenchmarkRowSlab(b *testing.B) {
	path := saveBenchModel(b)
	in, out := benchWidths[0], benchWidths[len(benchWidths)-1]
	for _, rows := range []int{1, 64} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			hpacml.ClearModelCache()
			s, err := NewServer(Config{
				MaxBatch: 32,
				MaxDelay: 100 * time.Microsecond,
				QueueCap: 1024,
				Workers:  2,
			}, ModelSpec{Name: "m", Path: path})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			slab := make([]float64, 0, rows*in)
			for k := 0; k < rows; k++ {
				slab = append(slab, inputVec(k, in)...)
			}
			b.SetParallelism(16 / runtime.GOMAXPROCS(0))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				y := make([]float64, rows*out)
				for pb.Next() {
					if _, err := s.inferRows("m", rows, slab, y, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * rows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/row")
		})
	}
}

// saveBenchModel writes the benchmark MLP and returns its path.
func saveBenchModel(b *testing.B) string {
	path := b.TempDir() + "/bench.gmod"
	if err := mlp(3, benchWidths...).Save(path); err != nil {
		b.Fatal(err)
	}
	return path
}
