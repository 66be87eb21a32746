// Package obs is the zero-dependency observability layer of the serving
// tier: per-request traces with named spans, propagated across processes
// via the X-CQA-Trace header, recorded in a lock-cheap ring buffer and
// served as JSON at GET /debug/traces, with an optional slow-query log.
//
// Design constraints, in order:
//
//   - Disabled must be free. A Tracer with sampling 0 returns nil traces,
//     and every method on a nil *Trace or nil *Span is a no-op, so
//     instrumented code needs no branches and an untraced request costs
//     one atomic load. Evaluation hot loops (internal/fo) are never
//     instrumented per candidate — spans bracket request stages only.
//
//   - Joins beat samples. A request arriving with an X-CQA-Trace header
//     is always recorded regardless of the sampling rate: the router
//     sampled it, so every shard it fans out to must contribute spans
//     under the same ID, or the trace is useless.
//
//   - Readers never block writers. Finished traces go into a fixed ring
//     of atomic pointers; recording is one atomic add plus one pointer
//     store, and /debug/traces snapshots the ring without any lock.
//
// See docs/OBSERVABILITY.md for the trace model and the join semantics
// across the sharded topology.
package obs

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying the trace ID across tiers:
// minted at the edge (router or first cqad), echoed on every response,
// and forwarded on every fan-out request.
const TraceHeader = "X-CQA-Trace"

// DefaultBuffer is the ring capacity when TracerOptions.Buffer ≤ 0.
const DefaultBuffer = 256

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Sample is the probability in [0, 1] that a fresh root trace is
	// recorded. 0 disables tracing (joined traces are still recorded);
	// values ≥ 1 record everything. NewTracer treats the zero value as
	// "record everything" — pass an explicit negative to disable. The
	// probability is fixed for the tracer's lifetime.
	Sample float64
	// Buffer is the ring capacity in finished traces; ≤ 0 selects
	// DefaultBuffer.
	Buffer int
	// SlowQuery is the duration beyond which a finished trace is logged
	// through Logf; 0 disables the slow-query log.
	SlowQuery time.Duration
	// Logf receives slow-query lines; nil discards them.
	Logf func(format string, v ...any)
}

// Tracer mints, records, and serves traces. Safe for concurrent use.
type Tracer struct {
	sample float64       // probability a fresh root trace records; ≥ 1 = all
	slow   time.Duration // slow-query threshold; 0 = off
	logf   func(format string, v ...any)

	ring   []atomic.Pointer[Trace]
	cursor atomic.Uint64

	seq     atomic.Uint64
	prefix  string
	sampled atomic.Uint64
	dropped atomic.Uint64
	slowN   atomic.Uint64
}

// NewTracer builds a tracer. The zero Sample records everything (the
// operational default); pass Sample < 0 to start disabled.
func NewTracer(opt TracerOptions) *Tracer {
	if opt.Buffer <= 0 {
		opt.Buffer = DefaultBuffer
	}
	sample := opt.Sample
	if sample == 0 {
		sample = 1
	} else if sample < 0 {
		sample = 0
	}
	t := &Tracer{
		sample: sample,
		ring:   make([]atomic.Pointer[Trace], opt.Buffer),
		slow:   opt.SlowQuery,
		logf:   opt.Logf,
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], rand.Uint64())
	t.prefix = fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:4]))
	return t
}

// Stats reports lifetime counters: traces recorded, root traces dropped
// by sampling, and traces that crossed the slow-query threshold.
func (t *Tracer) Stats() (sampled, dropped, slow uint64) {
	return t.sampled.Load(), t.dropped.Load(), t.slowN.Load()
}

// mint returns a fresh trace ID: a per-process random prefix plus a
// sequence number, unique within and readable across a topology.
func (t *Tracer) mint() string {
	return fmt.Sprintf("%s-%06x", t.prefix, t.seq.Add(1))
}

// Start begins a trace for one request. name labels the operation
// (typically METHOD /path). A non-empty joinID — the incoming
// X-CQA-Trace header — always records under that ID; otherwise the
// sampling decision applies and Start may return nil. All *Trace and
// *Span methods are nil-safe, so callers never branch.
func (t *Tracer) Start(name, joinID string) *Trace {
	if t == nil {
		return nil
	}
	id := joinID
	if id == "" {
		p := t.sample
		if p <= 0 || (p < 1 && rand.Float64() >= p) {
			t.dropped.Add(1)
			return nil
		}
		id = t.mint()
	}
	return &Trace{t: t, id: id, name: name, begin: time.Now()}
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// spanRec is one finished span as stored on its trace.
type spanRec struct {
	name   string
	offset time.Duration // from trace begin to span start
	dur    time.Duration
	attrs  []Attr
	err    string
}

// Trace is one request's record: an ID, a begin time, and finished
// spans in end order. A Trace is built by at most a handful of
// goroutines (the request handler and the workers it forks); span
// appends are serialized by a mutex that is uncontended in practice.
type Trace struct {
	t     *Tracer
	id    string
	name  string
	begin time.Time

	mu    sync.Mutex
	spans []spanRec
	dur   time.Duration
	done  bool
}

// ID returns the trace ID ("" on nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// StartSpan opens a named span. Nil-safe: on a nil trace it returns a
// nil span whose methods are no-ops.
func (tr *Trace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, name: name, start: time.Now()}
}

// Finish seals the trace and publishes it to the tracer's ring. Spans
// still open are dropped (End after Finish is a silent no-op).
// Idempotent and nil-safe.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.dur = time.Since(tr.begin)
	dur := tr.dur
	tr.mu.Unlock()

	t := tr.t
	t.sampled.Add(1)
	i := t.cursor.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(tr)
	if t.slow > 0 && dur >= t.slow {
		t.slowN.Add(1)
		if t.logf != nil {
			t.logf("slow query: trace=%s op=%s dur=%s spans=%d", tr.id, tr.name, dur.Round(time.Microsecond), len(tr.spans))
		}
	}
}

// Span is one in-flight stage of a trace. Created by StartSpan, sealed
// by End. Methods are nil-safe.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	attrs []Attr
	err   string
}

// SetAttr annotates the span; returns the span for chaining.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// Fail records an error on the span (kept alongside its timing).
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
}

// End seals the span onto its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	tr := s.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return
	}
	tr.spans = append(tr.spans, spanRec{
		name:   s.name,
		offset: s.start.Sub(tr.begin),
		dur:    dur,
		attrs:  s.attrs,
		err:    s.err,
	})
}

// TraceView is the JSON form of one finished trace.
type TraceView struct {
	ID       string     `json:"id"`
	Name     string     `json:"name"`
	Start    time.Time  `json:"start"`
	DurNanos int64      `json:"durNanos"`
	Spans    []SpanView `json:"spans"`
}

// SpanView is the JSON form of one span.
type SpanView struct {
	Name        string `json:"name"`
	OffsetNanos int64  `json:"offsetNanos"`
	DurNanos    int64  `json:"durNanos"`
	Attrs       []Attr `json:"attrs,omitempty"`
	Error       string `json:"error,omitempty"`
}

// view renders a finished trace.
func (tr *Trace) view() TraceView {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	v := TraceView{ID: tr.id, Name: tr.name, Start: tr.begin, DurNanos: int64(tr.dur), Spans: make([]SpanView, len(tr.spans))}
	for i, s := range tr.spans {
		v.Spans[i] = SpanView{Name: s.name, OffsetNanos: int64(s.offset), DurNanos: int64(s.dur), Attrs: s.attrs, Error: s.err}
	}
	return v
}

// Query filters a Snapshot.
type Query struct {
	// ID returns only traces with this exact ID.
	ID string
	// MinDur drops traces shorter than this.
	MinDur time.Duration
	// Limit bounds the result count; ≤ 0 selects 64.
	Limit int
}

// Snapshot returns finished traces, newest first, filtered by q. The
// snapshot is taken without blocking recorders; a trace finishing
// concurrently may or may not appear.
func (t *Tracer) Snapshot(q Query) []TraceView {
	if t == nil {
		return nil
	}
	if q.Limit <= 0 {
		q.Limit = 64
	}
	var out []TraceView
	for i := range t.ring {
		tr := t.ring[i].Load()
		if tr == nil {
			continue
		}
		v := tr.view()
		if q.ID != "" && v.ID != q.ID {
			continue
		}
		if q.MinDur > 0 && time.Duration(v.DurNanos) < q.MinDur {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// With returns ctx carrying tr; a nil trace returns ctx unchanged.
func With(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
