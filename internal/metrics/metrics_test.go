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

// TestHistogramBuckets: each observation lands in the first bucket whose
// bound holds it, and the sum is exact.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	buckets, count, sum := h.snapshot()
	if count != 1000 || sum != 50050*time.Millisecond {
		t.Fatalf("count = %d, sum = %s", count, sum)
	}
	var lo time.Duration
	for i, b := range latencyBuckets {
		// Observations are 100µs·k, so the bucket (lo, b] holds
		// ⌊b/100µs⌋ − ⌊lo/100µs⌋ of them, capped at k = 1000.
		step := 100 * time.Microsecond
		want := uint64(min(b/step, 1000) - min(lo/step, 1000))
		if buckets[i] != want {
			t.Errorf("bucket ≤ %s = %d, want %d", b, buckets[i], want)
		}
		lo = b
	}
	if buckets[len(latencyBuckets)] != 0 {
		t.Errorf("+Inf bucket = %d, want 0", buckets[len(latencyBuckets)])
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := newHistogram()
	if _, count, sum := h.snapshot(); count != 0 || sum != 0 {
		t.Errorf("empty histogram: count %d, sum %s", count, sum)
	}
	// An observation beyond the last bound lands in the +Inf bucket.
	h.Observe(time.Minute)
	buckets, _, _ := h.snapshot()
	if buckets[len(buckets)-1] != 1 {
		t.Errorf("overflow: buckets %v", buckets)
	}
	h.Observe(-time.Second) // negative durations count as zero
	buckets, count, sum := h.snapshot()
	if buckets[0] != 1 || count != 2 || sum != time.Minute {
		t.Errorf("after negative observe: first bucket %d, count %d, sum %s", buckets[0], count, sum)
	}
}

// TestRegistryJSONAndSummary: Values is the JSON rendering /v1/stats
// serves, a histogram as {count, sum_ns}.
func TestRegistryJSONAndSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("inflight").Set(1)
	r.Histogram("latency").Observe(2 * time.Millisecond)
	r.SetFunc("hit_rate", func() float64 { return 0.75 })

	raw, err := json.Marshal(r.Values())
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("Values is not JSON: %v\n%s", err, raw)
	}
	if parsed["reqs"] != float64(3) || parsed["inflight"] != float64(1) || parsed["hit_rate"] != 0.75 {
		t.Errorf("JSON values wrong: %v", parsed)
	}
	lat, ok := parsed["latency"].(map[string]any)
	if !ok || len(lat) != 2 || lat["count"] != float64(1) || lat["sum_ns"] != float64(2e6) {
		t.Errorf("latency histogram = %v, want {count 1, sum_ns 2e6}", parsed["latency"])
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
					_ = r.Prometheus()
					_ = r.Values()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 16*500 {
		t.Errorf("counter = %d, want %d", got, 16*500)
	}
	if _, got, _ := r.Histogram("h").snapshot(); got != 16*500 {
		t.Errorf("histogram count = %d, want %d", got, 16*500)
	}
}
