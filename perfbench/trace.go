package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, made by the
// benchmark; Op identifies the operation (one Region call, one HTTP
// request, one group of probe calls). Times are nanoseconds since the
// tracer started. The layers below a span are not spans of their own:
// they come from the program's own counters (Region.Stats, /metrics).
type span struct {
	Name  string `json:"name"`
	Op    uint64 `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each goroutine
// records into its own lane, so recording takes no shared lock. A nil
// *tracer and a nil *lane record nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns a new recording lane for one goroutine.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// id reserves an operation ID.
func (l *lane) id() uint64 {
	if l == nil {
		return 0
	}
	return l.tr.ids.Add(1)
}

// add records a finished span.
func (l *lane) add(name string, op uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, Op: op,
		Start: start.Sub(l.tr.t0).Nanoseconds(), End: end.Sub(l.tr.t0).Nanoseconds()})
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// spanStats is one span name's call count and total and mean time.
type spanStats struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	MeanUs  float64 `json:"mean_us"`
}

func (t *tracer) summary() map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range t.all() {
		st := out[s.Name]
		st.Count++
		st.TotalUs += float64(s.End-s.Start) / 1e3
		st.MeanUs = st.TotalUs / float64(st.Count)
		out[s.Name] = st
	}
	return out
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.all()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
