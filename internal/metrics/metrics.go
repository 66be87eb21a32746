// Package metrics is a small stdlib-only instrumentation library for the
// serving daemon: atomic counters and gauges, fixed-bucket latency
// histograms, and a named registry rendered in the Prometheus text
// format for GET /metrics and as a flat map for GET /v1/stats.
//
// All types are safe for concurrent use. Recording is a handful of
// atomic adds on a handle the caller resolved once; only creating a
// handle and rendering take the registry's lock.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Max raises the gauge to n if n is larger, atomically — for monotonic
// high-water marks (e.g. the latest store snapshot version) updated from
// concurrent writers.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// latencyBuckets are the histogram upper bounds: powers of two from
// 64µs to ~8.6s, then an implicit +Inf bucket.
var latencyBuckets = func() []time.Duration {
	var b []time.Duration
	for d := 64 * time.Microsecond; d <= 8*time.Second; d *= 2 {
		b = append(b, d)
	}
	return b
}()

// Histogram is a fixed-bucket duration histogram: what the Prometheus
// exposition carries, bucket counts, their sum and their count.
type Histogram struct {
	counts []atomic.Uint64 // len(latencyBuckets)+1; the last is +Inf
	sum    atomic.Int64    // nanoseconds
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

// Observe records one duration; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	i, _ := slices.BinarySearch(latencyBuckets, d)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// snapshot reads the per-bucket counts, their total and the sum. Under
// concurrent Observe it is approximate, but count is always the sum of
// the bucket counts it returns.
func (h *Histogram) snapshot() (buckets []uint64, count uint64, sum time.Duration) {
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		count += buckets[i]
	}
	return buckets, count, time.Duration(h.sum.Load())
}

// Registry is one map from series name to instrument: *Counter, *Gauge,
// *Histogram, or a func() float64 computed at render time. Names are
// families or Label-built series; the renderings sort them.
type Registry struct {
	mu sync.Mutex
	m  map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]any)} }

// lookup returns the instrument registered under name, registering
// mk() first if there is none. A name registered as another kind panics.
func lookup[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[name]
	if !ok {
		t := mk()
		r.m[name] = t
		return t
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("metrics: %q registered as %T, requested as %T", name, v, t))
	}
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return new(Counter) })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, newHistogram)
}

// SetFunc registers fn under name: a gauge evaluated at every render.
// fn must be safe for concurrent use.
func (r *Registry) SetFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T", name, v))
	}
	r.m[name] = fn
}

// entries returns the registered series in no particular order.
func (r *Registry) entries() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.m))
	for n, v := range r.m {
		out[n] = v
	}
	return out
}

// Values renders every series as name → value, the JSON form GET
// /v1/stats serves: counters and gauges as numbers, a histogram as
// {"count", "sum_ns"}, a func as its value.
func (r *Registry) Values() map[string]any {
	out := r.entries()
	for n, v := range out {
		switch x := v.(type) {
		case *Counter:
			out[n] = x.Value()
		case *Gauge:
			out[n] = x.Value()
		case *Histogram:
			_, count, sum := x.snapshot()
			out[n] = map[string]any{"count": count, "sum_ns": int64(sum)}
		case func() float64:
			out[n] = x()
		}
	}
	return out
}

// Label formats a metric name with label pairs in Prometheus series
// form: Label("shard_rpc_total", "shard", "2", "outcome", "ok") yields
// `shard_rpc_total{shard="2",outcome="ok"}`. The result is used directly
// as a registry name, and the Prometheus renderer splits it back apart so
// all series of one family share a base name and a single TYPE line. kv
// must be alternating key/value; values are escaped, keys must already
// be valid label names.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitSeries splits a registry name built by Label back into its base
// family name and the raw label text (without braces). Plain names
// return labels == "".
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}
