package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/metrics"
	"cqa/internal/parse"
)

// newTestServer builds a server with a small preloaded database named
// "people" and returns it with its httptest wrapper.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Databases == nil {
		opt.Databases = map[string]*db.Database{
			"people": parse.MustDatabase("R(a | 1)\nR(a | 2)\n"),
		}
	}
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// scrapeMetrics GETs /metrics and returns the parsed exposition after
// checking it is the text format and lints clean.
func scrapeMetrics(t *testing.T, base string) *metrics.PromExposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.LintPrometheus(string(text)); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v\n%s", err, text)
	}
	exp, err := metrics.ParsePrometheus(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestClassifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: "P(x | y), !N('c' | y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeBody[ClassifyResponse](t, resp)
	if out.Verdict != "FO" || out.Rewriting == "" || !strings.Contains(out.SQL, "SELECT") {
		t.Errorf("FO classify response wrong: %+v", out)
	}

	resp = postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: "R(x | y), !S(y | x)"})
	out = decodeBody[ClassifyResponse](t, resp)
	if out.Verdict != "not-FO" || out.Hardness != "NL-hard" || len(out.Cycle) != 2 {
		t.Errorf("non-FO classify response wrong: %+v", out)
	}
	if out.SQL != "" || out.Rewriting != "" {
		t.Errorf("non-FO response should not carry a rewriting: %+v", out)
	}
}

func TestCertainEndpointInlineFacts(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		query, facts string
		want         bool
	}{
		{"R(x | y)", "R(a | 1)\nR(a | 2)\n", true},
		{"R(x | '1')", "R(a | 1)\nR(a | 2)\n", false},
		{"P(x | y), !N('c' | y)", "P(p1 | v1)\nP(p1 | v2)\nN(c | v2)\n", false},
	} {
		resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: tc.query, Facts: tc.facts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", tc.query, resp.StatusCode)
		}
		out := decodeBody[CertainResponse](t, resp)
		if out.Certain != tc.want {
			t.Errorf("%s: certain = %v, want %v", tc.query, out.Certain, tc.want)
		}
		if out.Verdict != "FO" {
			t.Errorf("%s: verdict = %q", tc.query, out.Verdict)
		}
	}

	// An inline read looks its plan up exactly once: n reads of one query
	// are one miss and n-1 hits.
	const n = 5
	before := s.Engine().Stats()
	for i := 0; i < n; i++ {
		resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | 'z'), !S(x | 'z')", Facts: "R(a | z)\n"})
		if out := decodeBody[CertainResponse](t, resp); !out.Certain || out.Cached != nil || out.Version != 0 {
			t.Fatalf("inline read %d: %+v", i, out)
		}
	}
	after := s.Engine().Stats()
	if hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; hits != n-1 || misses != 1 {
		t.Errorf("plan cache over %d inline reads: %d hits, %d misses, want %d/1", n, hits, misses, n-1)
	}
	if after.ResultHits+after.ResultMisses != 0 {
		t.Errorf("inline reads consulted the result cache: %+v", after)
	}
}

func TestCertainEndpointNamedDatabase(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "people"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out := decodeBody[CertainResponse](t, resp); !out.Certain {
		t.Errorf("named-db certain = false, want true")
	}
}

func TestStatsAndOpsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Before any traffic the exposition lints and already lists every
	// fixed series at zero: New resolves each handle, and resolving one
	// registers it.
	exp := scrapeMetrics(t, ts.URL)
	for _, name := range []string{
		"requests_total", "rejected_total", "timeouts_total", "errors_total", "panics_total",
		"partial_result_total", "partial_write_total", "wal_records", "result_cache_carried_total",
		"requests_inflight", "watch_active", "watch_fanin", "request_latency_seconds_count",
		"traces_sampled", "traces_dropped", "slow_queries", "engine_cache_hit_rate",
	} {
		if v, ok := exp.Value(name); !ok || v != 0 {
			t.Errorf("pre-traffic /metrics %s = %v (present=%v), want 0", name, v, ok)
		}
	}
	if _, ok := exp.Value("snapshot_version"); !ok {
		t.Error("pre-traffic /metrics lacks snapshot_version")
	}
	labeled := [][]string{
		{"delta_reeval_total", "outcome", "skipped"},
		{"delta_reeval_total", "outcome", "reevaluated"},
		{"delta_reeval_total", "outcome", "flipped"},
	}
	for _, e := range []string{"classify", "certain", "db_create", "db_insert", "db_delete"} {
		labeled = append(labeled, []string{"requests_by_endpoint_total", "endpoint", e})
	}
	for _, st := range engine.Strategies {
		for _, c := range []string{engine.CacheHit, engine.CacheMiss, engine.CacheBypass} {
			labeled = append(labeled, []string{"eval_total", "strategy", st, "cache", c})
		}
	}
	for _, l := range labeled {
		if v, ok := exp.Value(l[0], l[1:]...); !ok || v != 0 {
			t.Errorf("pre-traffic /metrics %v = %v (present=%v), want 0", l, v, ok)
		}
	}

	// Drive a little traffic so the counters move.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "people"})
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[StatsResponse](t, resp)
	// Each named-db read looks its plan up exactly once, before the result
	// cache: the first prepares, the later two hit — 2 hits, 1 miss.
	if stats.Engine.CacheHits != 2 || stats.Engine.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", stats.Engine.CacheHits, stats.Engine.CacheMisses)
	}
	if got := stats.Engine.CacheHitRate; got != 2.0/3 {
		t.Errorf("cache hit rate = %v, want 2/3", got)
	}
	if stats.Engine.ResultHits != 2 || stats.Engine.ResultMisses != 1 {
		t.Errorf("result hits/misses = %d/%d, want 2/1", stats.Engine.ResultHits, stats.Engine.ResultMisses)
	}
	if stats.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v, want > 0", stats.UptimeSeconds)
	}
	if stats.Scope != "primary" {
		t.Errorf("stats scope = %q, want primary", stats.Scope)
	}
	if got := stats.Server[`requests_by_endpoint_total{endpoint="certain"}`]; got != float64(3) {
		t.Errorf(`/v1/stats requests_by_endpoint_total{endpoint="certain"} = %v, want 3`, got)
	}
	// A histogram renders as its count and sum, nothing else.
	lat, ok := stats.Server["request_latency"].(map[string]any)
	if sum, _ := lat["sum_ns"].(float64); !ok || len(lat) != 2 || lat["count"] != float64(3) || sum <= 0 {
		t.Errorf("/v1/stats request_latency = %v, want {count: 3, sum_ns > 0}", stats.Server["request_latency"])
	}

	for path, want := range map[string]string{
		"/healthz": "ok",
		"/readyz":  "ready",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || strings.TrimSpace(buf.String()) != want {
			t.Errorf("%s: %d %q", path, resp.StatusCode, buf.String())
		}
	}

	exp = scrapeMetrics(t, ts.URL)
	// /v1/stats and /metrics render one registry: every name of the one
	// is a family of the other.
	for name, v := range stats.Server {
		fam, _, _ := strings.Cut(name, "{")
		if _, hist := v.(map[string]any); hist {
			fam += "_seconds"
		}
		if exp.Types[fam] == "" {
			t.Errorf("/v1/stats %s has no /metrics family %s", name, fam)
		}
	}
	for name, want := range map[string]float64{
		"requests_total":                3,
		"request_latency_seconds_count": 3,
		"engine_cache_hit_rate":         2.0 / 3,
	} {
		if v, ok := exp.Value(name); !ok || v != want {
			t.Errorf("/metrics %s = %v (present=%v), want %v", name, v, ok, want)
		}
	}
	if v, ok := exp.Value("requests_by_endpoint_total", "endpoint", "certain"); !ok || v != 3 {
		t.Errorf("endpoint-labeled counter = %v (present=%v), want 3", v, ok)
	}
	// Sampling defaults to every request: the tracer recorded each read.
	if v, ok := exp.Value("traces_sampled"); !ok || v < 3 {
		t.Errorf("traces_sampled = %v (present=%v), want ≥ 3", v, ok)
	}
	// One evaluation ran (compiled strategy, result-cache miss); the two
	// repeats hit the versioned result cache.
	if v, ok := exp.Value("eval_total", "strategy", engine.StrategyCompiledBitmap, "cache", "miss"); !ok || v != 1 {
		t.Errorf("eval_total miss = %v (present=%v), want 1", v, ok)
	}
	if v, ok := exp.Value("eval_total", "strategy", engine.StrategyCompiledBitmap, "cache", "hit"); !ok || v != 2 {
		t.Errorf("eval_total hit = %v (present=%v), want 2", v, ok)
	}
}

// TestMethodAndRouteErrors also guards the deleted surfaces: the
// API port serves no many-database batch, no WAL stream, no expvar
// document and no profiling (cqad serves pprof only on its -pprof-addr
// listener).
func TestMethodAndRouteErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/certain", http.StatusMethodNotAllowed},
		{"GET", "/nope", http.StatusNotFound},
		{"POST", "/v1/batch", http.StatusNotFound},
		{"GET", "/v1/wal/stream", http.StatusNotFound},
		{"GET", "/debug/vars", http.StatusNotFound},
		{"GET", "/debug/pprof/", http.StatusNotFound},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(`{"query":"R(x | y)","databases":["people"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

func TestServerAfterEngineClose(t *testing.T) {
	eng := engine.New(engine.Options{})
	_, ts := newTestServer(t, Options{Engine: eng})
	eng.Close()
	resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "people"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status after engine close = %d, want 503", resp.StatusCode)
	}
	out := decodeBody[ErrorBody](t, resp)
	if out.Error.Code != "shutting_down" {
		t.Errorf("code = %q", out.Error.Code)
	}
}

func ExampleServer() {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := http.Post(ts.URL+"/v1/certain", "application/json",
		strings.NewReader(`{"query": "R(x | y)", "facts": "R(a | 1)\nR(a | 2)"}`))
	var out CertainResponse
	json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println(out.Certain, out.Verdict)
	// Output: true FO
}

// Queries of one shape share a plan, but a reply speaks of its own
// query only: classifying R('b' | y), !S('b' | y) after R('a' | x),
// !S('a' | x) echoes the second query, and no field of the reply carries
// the first one's constant; R('b' | z), !S('b' | z) then echoes its own
// variable. A read of the shape's next query hits the plan and answers
// on its own constants.
func TestClassifyEchoesOwnQuery(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, src := range []string{"R('a' | x), !S('a' | x)", "R('b' | y), !S('b' | y)", "R('b' | z), !S('b' | z)"} {
		resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: src})
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var out ClassifyResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Query != src || out.Verdict != "FO" {
			t.Fatalf("classify %s: query %q, verdict %s", src, out.Query, out.Verdict)
		}
		if src[3] == 'b' && strings.Contains(string(raw), "'a'") {
			t.Fatalf("classify %s answered with the earlier query's constant: %s", src, raw)
		}
		if c := src[2:5]; !strings.Contains(out.Rewriting, c) || !strings.Contains(out.SQL, c) {
			t.Fatalf("classify %s: rewriting %q, sql %q lack the query's constant", src, out.Rewriting, out.SQL)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R('c' | y), !S('c' | y)", Facts: "R(c | 1)\nS(b | 1)", Explain: true})
	out := decodeBody[CertainResponse](t, resp)
	if !out.Certain || out.Explain == nil || out.Explain.PlanCache != "hit" {
		t.Fatalf("read of the cached shape: %+v", out)
	}
}
