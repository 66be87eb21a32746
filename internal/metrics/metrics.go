// Package metrics is a small stdlib-only instrumentation library for the
// serving daemon: atomic counters and gauges, fixed-bucket latency
// histograms with percentile snapshots, and a named registry that renders
// either as expvar-compatible JSON (the Registry implements expvar.Var)
// or as a one-line plain-text summary for GET /metrics.
//
// All types are safe for concurrent use. Recording on the hot path is a
// handful of atomic adds; snapshots and rendering pay the iteration cost.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
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

// DefaultLatencyBuckets are the histogram upper bounds used for request
// latencies: powers of two from 64µs to ~8.6s plus +Inf. Fixed buckets
// keep Observe to one binary search and two atomic adds.
var DefaultLatencyBuckets = func() []time.Duration {
	var b []time.Duration
	for d := 64 * time.Microsecond; d <= 8*time.Second; d *= 2 {
		b = append(b, d)
	}
	return b
}()

// Histogram is a fixed-bucket duration histogram. The zero value is not
// usable; construct with NewHistogram.
type Histogram struct {
	bounds []time.Duration // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Int64    // nanoseconds; durations this large never overflow in practice
	mu     sync.Mutex      // guards min/max only
	min    time.Duration
	max    time.Duration
}

// NewHistogram builds a histogram with the given sorted upper bounds;
// nil selects DefaultLatencyBuckets.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	bounds = append([]time.Duration(nil), bounds...)
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1), min: math.MaxInt64}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.mu.Lock()
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count         uint64
	Sum           time.Duration
	Min, Max      time.Duration
	Mean          time.Duration
	P50, P95, P99 time.Duration
	// Buckets holds cumulative counts per upper bound, ending with the
	// +Inf bucket (whose bound is reported as 0).
	Buckets []BucketCount
}

// BucketCount is one histogram bucket: Count observations ≤ UpperBound.
type BucketCount struct {
	UpperBound time.Duration // 0 means +Inf (the overflow bucket)
	Count      uint64        // non-cumulative count in this bucket
}

// Snapshot returns a consistent-enough view (counters are read
// individually, so a snapshot under concurrent Observe is approximate),
// with two hard guarantees that hold even while observations race in:
// Count equals the sum of the bucket counts actually snapshotted, and
// P50 ≤ P95 ≤ P99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]BucketCount, len(h.counts))}
	var total uint64
	for i := range h.counts {
		var ub time.Duration
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		c := h.counts[i].Load()
		s.Buckets[i] = BucketCount{UpperBound: ub, Count: c}
		total += c
	}
	// Count must come from the snapshotted buckets, not a separate total
	// counter: under concurrent Observe the two reads disagree, and a
	// Count above the bucket sum pushes quantile ranks past every bucket.
	s.Count = total
	s.Sum = time.Duration(h.sum.Load())
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
		h.mu.Lock()
		s.Min, s.Max = h.min, h.max
		h.mu.Unlock()
		if s.Min > s.Max {
			// An Observe raced between its bucket add and its min/max
			// update; don't clamp quantiles against a sentinel min.
			s.Min = 0
		}
	}
	s.P50 = h.quantile(s, 0.50)
	s.P95 = h.quantile(s, 0.95)
	s.P99 = h.quantile(s, 0.99)
	if s.P95 < s.P50 {
		s.P95 = s.P50
	}
	if s.P99 < s.P95 {
		s.P99 = s.P95
	}
	return s
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds the target rank. Values beyond the last finite bound
// are clamped to the observed max.
func (h *Histogram) quantile(s HistogramSnapshot, q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, b := range s.Buckets {
		next := cum + float64(b.Count)
		if rank <= next && b.Count > 0 {
			lo := time.Duration(0)
			if i > 0 {
				lo = s.Buckets[i-1].UpperBound
			}
			hi := b.UpperBound
			if hi == 0 { // +Inf bucket: clamp to the observed max
				return s.Max
			}
			frac := (rank - cum) / float64(b.Count)
			est := lo + time.Duration(frac*float64(hi-lo))
			if est > s.Max {
				est = s.Max
			}
			if est < s.Min {
				est = s.Min
			}
			return est
		}
		cum = next
	}
	return s.Max
}

// String renders the snapshot compactly: count, mean, and percentiles.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "count=0"
	}
	return fmt.Sprintf("count=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, round(s.Mean), round(s.P50), round(s.P95), round(s.P99), round(s.Max))
}

// round trims sub-microsecond noise from printed durations.
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// Registry is a named collection of counters, gauges, and histograms.
// Get-or-create accessors make call sites one-liners; iteration is in
// name order so rendered output is stable.
type Registry struct {
	mu     sync.Mutex
	order  []string
	kind   map[string]byte // 'c', 'g', 'h'
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	// extra are callback-backed values included in renderings (e.g. the
	// engine cache hit rate, computed from engine.Stats at read time).
	extra map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kind:   make(map[string]byte),
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		extra:  make(map[string]func() any),
	}
}

func (r *Registry) register(name string, k byte) {
	if prev, ok := r.kind[name]; ok {
		if prev != k {
			panic(fmt.Sprintf("metrics: %q registered as %c and %c", name, prev, k))
		}
		return
	}
	r.kind[name] = k
	r.order = append(r.order, name)
	sort.Strings(r.order)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, 'c')
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, 'g')
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram (DefaultLatencyBuckets), creating
// it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, 'h')
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(nil)
		r.hists[name] = h
	}
	return h
}

// SetFunc registers a callback-backed value evaluated at render time.
// Callbacks must be safe for concurrent use and should return a number,
// string, or JSON-marshalable map.
func (r *Registry) SetFunc(name string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, 'f')
	r.extra[name] = fn
}

// Values returns every metric as a flat name → value map: counters and
// gauges as numbers, histograms as nested maps with count/mean/p50/p95/
// p99/max in nanoseconds, funcs as whatever they return.
func (r *Registry) Values() map[string]any {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]any, len(names))
	for _, n := range names {
		r.mu.Lock()
		k := r.kind[n]
		c, g, h, f := r.ctrs[n], r.gauges[n], r.hists[n], r.extra[n]
		r.mu.Unlock()
		switch k {
		case 'c':
			out[n] = c.Value()
		case 'g':
			out[n] = g.Value()
		case 'h':
			s := h.Snapshot()
			out[n] = map[string]any{
				"count":   s.Count,
				"mean_ns": int64(s.Mean),
				"p50_ns":  int64(s.P50),
				"p95_ns":  int64(s.P95),
				"p99_ns":  int64(s.P99),
				"max_ns":  int64(s.Max),
			}
		case 'f':
			out[n] = f()
		}
	}
	return out
}

// String renders the registry as JSON, satisfying expvar.Var so a
// Registry can be expvar.Publish'ed and served at /debug/vars.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Values())
	if err != nil {
		// Only a misbehaving SetFunc callback can get here.
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}

// Label formats a metric name with label pairs in Prometheus series
// form: Label("shard_rpc_total", "shard", "2", "outcome", "ok") yields
// `shard_rpc_total{shard="2",outcome="ok"}`. The result is used directly
// as a registry name — the registry get-or-create path is the series
// cache — and the Prometheus renderer splits it back apart so all series
// of one family share a base name and a single TYPE line. kv must be
// alternating key/value; values are escaped, keys must already be valid
// label names.
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
