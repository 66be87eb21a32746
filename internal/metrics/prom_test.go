package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLabel(t *testing.T) {
	if got := Label("requests_total"); got != "requests_total" {
		t.Errorf("no labels: %q", got)
	}
	got := Label("shard_rpc_total", "shard", "2", "outcome", "ok")
	if got != `shard_rpc_total{shard="2",outcome="ok"}` {
		t.Errorf("Label = %q", got)
	}
	base, labels := splitSeries(got)
	if base != "shard_rpc_total" || labels != `shard="2",outcome="ok"` {
		t.Errorf("splitSeries = %q / %q", base, labels)
	}
	// Values with quotes, backslashes, and newlines must come back out
	// parseable.
	tricky := Label("m", "q", "a\"b\\c\nd")
	if want := `m{q="a\"b\\c\nd"}`; tricky != want {
		t.Errorf("escaped = %q, want %q", tricky, want)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(7)
	r.Counter(Label("eval_total", "strategy", "compiled", "cache", "hit")).Add(3)
	r.Counter(Label("eval_total", "strategy", "tree-walk", "cache", "miss")).Inc()
	r.Gauge("requests_inflight").Set(2)
	r.Histogram("request_latency").Observe(5 * time.Millisecond)
	r.Histogram(Label("shard_rpc_latency", "shard", "0")).Observe(time.Millisecond)
	r.Histogram(Label("shard_rpc_latency", "shard", "1")).Observe(2 * time.Millisecond)
	r.SetFunc("engine_cache_hit_rate", func() float64 { return 0.75 })

	text := r.Prometheus()
	if err := LintPrometheus(text); err != nil {
		t.Fatalf("lint: %v\n%s", err, text)
	}
	exp, err := ParsePrometheus(text)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("requests_total"); !ok || v != 7 {
		t.Errorf("requests_total = %v %v", v, ok)
	}
	if v, ok := exp.Value("eval_total", "strategy", "compiled", "cache", "hit"); !ok || v != 3 {
		t.Errorf("labeled eval_total = %v %v", v, ok)
	}
	if exp.Types["eval_total"] != "counter" || exp.Types["request_latency_seconds"] != "histogram" {
		t.Errorf("types: %v", exp.Types)
	}
	if v, ok := exp.Value("request_latency_seconds_count"); !ok || v != 1 {
		t.Errorf("histogram count = %v %v", v, ok)
	}
	if v, ok := exp.Value("shard_rpc_latency_seconds_count", "shard", "1"); !ok || v != 1 {
		t.Errorf("labeled histogram count = %v %v", v, ok)
	}
	if v, ok := exp.Value("engine_cache_hit_rate"); !ok || v != 0.75 {
		t.Errorf("func gauge = %v %v", v, ok)
	}
	// One TYPE line per family, even with several labeled series.
	if n := strings.Count(text, "# TYPE eval_total "); n != 1 {
		t.Errorf("eval_total TYPE lines = %d\n%s", n, text)
	}
	// Buckets carry both the series labels and le.
	if !strings.Contains(text, `shard_rpc_latency_seconds_bucket{shard="0",le="+Inf"}`) {
		t.Errorf("missing labeled +Inf bucket:\n%s", text)
	}
}

func TestLintCatchesBadExpositions(t *testing.T) {
	cases := []struct {
		name string
		text string
		frag string
	}{
		{"sample before type", "x_total 1\n# TYPE x_total counter\n", "before TYPE"},
		{"duplicate series", "# TYPE a gauge\na{k=\"v\"} 1\na{k=\"v\"} 2\n", "duplicate series"},
		{"bad name", "# TYPE 9x counter\n9x 1\n", "invalid"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "not cumulative"},
		{"missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n", "+Inf"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n", "_count"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n", "_sum"},
		{"unknown type", "# TYPE x flavor\nx 1\n", "unknown type"},
		{"bad value", "# TYPE x gauge\nx pancake\n", "bad value"},
	}
	for _, c := range cases {
		err := LintPrometheus(c.text)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want fragment %q", c.name, err, c.frag)
		}
	}
	good := "# TYPE ok_total counter\nok_total 3\n# TYPE h histogram\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.9\nh_count 2\n"
	if err := LintPrometheus(good); err != nil {
		t.Errorf("clean exposition rejected: %v", err)
	}
}

// TestHistogramCountUnderRace hammers one histogram from 8 goroutines
// while rendering it concurrently: every racing scrape must lint, which
// needs each histogram's _count to equal its +Inf bucket. Run under
// -race.
func TestHistogramCountUnderRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := time.Duration(g+1) * 100 * time.Microsecond
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(d + time.Duration(i%64)*time.Millisecond)
			}
		}(g)
	}
	defer wg.Wait()
	defer close(stop)
	for i := 0; i < 200; i++ {
		if err := LintPrometheus(r.Prometheus()); err != nil {
			t.Fatalf("scrape %d under race: %v", i, err)
		}
	}
}
