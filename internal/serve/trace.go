package serve

import (
	"context"
	"time"
)

// span is one HTTP request's trace record: the request ID (honored
// from the X-Request-ID header or minted at entry), what the request
// addressed, and per-stage timings — decode (request body to typed
// request), queue (enqueue to batch cut), forward (the batch's engine
// call), and encode (typed response to response body). The logging
// middleware renders it as one structured log line per request, which
// is what makes a client-reported request ID greppable into the exact
// server-side stage breakdown of that request.
type span struct {
	id    string
	start time.Time

	model string // infer requests
	db    string // capture requests
	wire  string // json | binary
	dtype string // f64 | f32
	rows  int

	decode time.Duration
	encode time.Duration
	// queue and forward are the served request's longest range wait
	// and batch forward — the stages as the caller experienced them.
	queue   time.Duration
	forward time.Duration
}

type spanKey struct{}

// withSpan attaches the request's span to its context.
func withSpan(ctx context.Context, sp *span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// spanFrom returns the request's span, nil outside the handler chain.
func spanFrom(ctx context.Context) *span {
	sp, _ := ctx.Value(spanKey{}).(*span)
	return sp
}

// requestIDFrom returns the request's trace ID, "" outside the
// handler chain — the hook writeErr uses to stamp error bodies.
func requestIDFrom(ctx context.Context) string {
	if sp := spanFrom(ctx); sp != nil {
		return sp.id
	}
	return ""
}
