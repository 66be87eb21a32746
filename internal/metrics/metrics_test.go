package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("requests") != c {
		t.Error("Counter should return the same instance")
	}
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge after Set = %d, want 7", got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name with a different kind should panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(nil)
	// 1000 observations uniform over (0, 100ms]: p50 ≈ 50ms, p99 ≈ 99ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 100*time.Microsecond || s.Max != 100*time.Millisecond {
		t.Errorf("min/max = %s/%s", s.Min, s.Max)
	}
	// Fixed power-of-two buckets bound the quantile error by the bucket
	// width; accept a factor-of-two band around the exact value.
	checks := []struct {
		name  string
		got   time.Duration
		exact time.Duration
	}{
		{"p50", s.P50, 50 * time.Millisecond},
		{"p95", s.P95, 95 * time.Millisecond},
		{"p99", s.P99, 99 * time.Millisecond},
	}
	for _, c := range checks {
		if c.got < c.exact/2 || c.got > 2*c.exact {
			t.Errorf("%s = %s, want within [%s, %s]", c.name, c.got, c.exact/2, 2*c.exact)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Errorf("percentiles not monotone: %s", s)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram(nil)
	s := h.Snapshot()
	if s.Count != 0 || s.P99 != 0 || s.String() != "count=0" {
		t.Errorf("empty snapshot = %+v", s)
	}
	// An observation beyond the last bound lands in the +Inf bucket and
	// percentiles clamp to the observed max.
	h.Observe(time.Minute)
	s = h.Snapshot()
	if s.P99 != time.Minute || s.Max != time.Minute {
		t.Errorf("overflow: p99=%s max=%s", s.P99, s.Max)
	}
	h.Observe(-time.Second) // negative durations clamp to zero
	if got := h.Snapshot().Min; got != 0 {
		t.Errorf("min after negative observe = %s, want 0", got)
	}
}

func TestRegistryJSONAndSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("inflight").Set(1)
	r.Histogram("latency").Observe(2 * time.Millisecond)
	r.SetFunc("hit_rate", func() any { return 0.75 })

	var parsed map[string]any
	if err := json.Unmarshal([]byte(r.String()), &parsed); err != nil {
		t.Fatalf("String() is not JSON: %v\n%s", err, r.String())
	}
	if parsed["reqs"] != float64(3) || parsed["inflight"] != float64(1) || parsed["hit_rate"] != 0.75 {
		t.Errorf("JSON values wrong: %v", parsed)
	}
	lat, ok := parsed["latency"].(map[string]any)
	if !ok || lat["count"] != float64(1) {
		t.Errorf("latency histogram wrong: %v", parsed["latency"])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
				if j%100 == 0 {
					_ = r.String()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 16*500 {
		t.Errorf("counter = %d, want %d", got, 16*500)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 16*500 {
		t.Errorf("histogram count = %d, want %d", got, 16*500)
	}
}
