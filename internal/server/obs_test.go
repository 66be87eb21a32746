package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/obs"
	"cqa/internal/parse"
	"cqa/internal/shard"
)

// tracesDoc mirrors the GET /debug/traces payload.
type tracesDoc struct {
	Sampled uint64          `json:"sampled"`
	Dropped uint64          `json:"dropped"`
	Slow    uint64          `json:"slow"`
	Traces  []obs.TraceView `json:"traces"`
}

func getTraces(t *testing.T, base, query string) tracesDoc {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc tracesDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func spanNames(tv obs.TraceView) map[string]obs.SpanView {
	m := make(map[string]obs.SpanView, len(tv.Spans))
	for _, sp := range tv.Spans {
		m[sp.Name] = sp
	}
	return m
}

func attr(sp obs.SpanView, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTraceCoverageThroughRouter is the tentpole acceptance check: one
// traced /v1/certain through a 4-shard router yields a single trace ID
// covering the router's parse and one RPC span per contacted shard,
// with the same ID joined on every shard server's own trace — where the
// preparing and evaluating of a forwarded read happen — and span
// durations that fit inside the measured request latency.
func TestTraceCoverageThroughRouter(t *testing.T) {
	const n = 4
	shardURLs := make([]string, n)
	for i := 0; i < n; i++ {
		_, ts := newTestServer(t, Options{Databases: map[string]*db.Database{}})
		shardURLs[i] = ts.URL
	}
	rt := NewRouter(RouterOptions{Shards: shardURLs, Options: Options{Engine: engine.New(engine.Options{})}})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	// R exists everywhere but is empty, so the scatter cannot
	// short-circuit: all four shards must be contacted.
	mustCreate(t, rts.URL, DBCreateRequest{Name: "d", Declare: []RelSig{{Name: "R", Arity: 2, Key: 1}}})

	begin := time.Now()
	resp := postJSON(t, rts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "d", Explain: true})
	latency := time.Since(begin)
	traceID := resp.Header.Get(obs.TraceHeader)
	ans := decodeBody[CertainResponse](t, resp)
	if traceID == "" {
		t.Fatal("response lacks the X-CQA-Trace header")
	}
	if ans.Certain {
		t.Fatalf("empty relation cannot be certain: %+v", ans)
	}
	if ans.Explain == nil {
		t.Fatal("explain requested but absent")
	}
	if ans.Explain.TraceID != traceID {
		t.Errorf("explain traceId %q != header %q", ans.Explain.TraceID, traceID)
	}
	if ans.Explain.ShardPlan != shard.PlanScatter || len(ans.Explain.Shards) != n {
		t.Errorf("explain shard plan = %q %v, want scatter over %d shards", ans.Explain.ShardPlan, ans.Explain.Shards, n)
	}
	// The evaluation facts are the answering shard's; the stages are the
	// router's own; a shard-local version is not relayed.
	if ans.Explain.Strategy == "" || ans.Explain.PlanCache == "" || ans.Explain.ResultCache == "" || ans.Explain.RewritingSize <= 0 {
		t.Errorf("explain lacks the shard-reported evaluation facts: %+v", ans.Explain)
	}
	if len(ans.Explain.Stages) != 2 || ans.Explain.Stages[0].Name != "parse" || ans.Explain.Stages[1].Name != "scatter" {
		t.Errorf("explain stages = %+v, want the router's parse and scatter", ans.Explain.Stages)
	}
	if ans.Version != 0 || ans.Cached != nil {
		t.Errorf("forwarded reply relays shard-local version/cached: %+v", ans)
	}

	doc := getTraces(t, rts.URL, "?id="+traceID)
	if len(doc.Traces) != 1 {
		t.Fatalf("router has %d traces for id %s, want 1", len(doc.Traces), traceID)
	}
	tv := doc.Traces[0]
	if tv.DurNanos > latency.Nanoseconds() {
		t.Errorf("trace duration %dns exceeds measured request latency %dns", tv.DurNanos, latency.Nanoseconds())
	}
	spans := spanNames(tv)
	if _, ok := spans["parse"]; !ok {
		t.Errorf("router trace lacks a parse span")
	}
	if _, ok := spans["prepare"]; ok {
		t.Errorf("router prepared a forwarded read: %+v", tv.Spans)
	}
	rpcShards := map[string]bool{}
	var sum int64
	for _, sp := range tv.Spans {
		sum += sp.DurNanos
		if sp.OffsetNanos < 0 || sp.OffsetNanos+sp.DurNanos > tv.DurNanos {
			t.Errorf("span %s [%d,+%d] outside trace duration %d", sp.Name, sp.OffsetNanos, sp.DurNanos, tv.DurNanos)
		}
		if sp.Name == "rpc" {
			rpcShards[attr(sp, "shard")] = true
		}
	}
	if sum > latency.Nanoseconds() {
		t.Errorf("span durations sum to %dns, more than the request latency %dns", sum, latency.Nanoseconds())
	}
	for i := 0; i < n; i++ {
		if !rpcShards[strconv.Itoa(i)] {
			t.Errorf("router fan-out has no rpc span for shard %d (got %v)", i, rpcShards)
		}
	}

	// Every shard joined the same trace ID and recorded its evaluation.
	for i, base := range shardURLs {
		sd := getTraces(t, base, "?id="+traceID)
		if len(sd.Traces) != 1 {
			t.Fatalf("shard %d has %d traces for id %s, want 1", i, len(sd.Traces), traceID)
		}
		ss := spanNames(sd.Traces[0])
		if _, ok := ss["eval"]; !ok {
			t.Errorf("shard %d trace lacks an eval span: %+v", i, sd.Traces[0].Spans)
		}
		if sp, ok := ss["prepare"]; !ok || attr(sp, "planCache") == "" {
			t.Errorf("shard %d trace lacks a prepare span with planCache: %+v", i, sd.Traces[0].Spans)
		}
	}

	// The limit filter caps the listing.
	if doc := getTraces(t, rts.URL, "?limit=1"); len(doc.Traces) > 1 {
		t.Errorf("limit=1 returned %d traces", len(doc.Traces))
	}
}

// TestExplainReportsExecutedStrategy cross-checks `"explain": true`
// against the compiled program: the strategy in the response must be the
// one the engine dispatches for the query.
func TestExplainReportsExecutedStrategy(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  string
	}{
		{"bitmap default", "R(x | y)", engine.StrategyCompiledBitmap},
		// x occurs twice in one atom, so no quantifier lowers.
		{"compiled", "S(x, x)", engine.StrategyCompiled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{})
			begin := time.Now()
			resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: c.query, Database: "people", Explain: true})
			latency := time.Since(begin).Nanoseconds()
			traceID := resp.Header.Get(obs.TraceHeader)
			ans := decodeBody[CertainResponse](t, resp)
			if ans.Explain == nil {
				t.Fatal("explain absent")
			}
			if ans.Explain.Strategy != c.want {
				t.Errorf("explain strategy = %q, want %q", ans.Explain.Strategy, c.want)
			}
			if ans.Explain.RewritingSize <= 0 {
				t.Errorf("rewriting size = %d, want > 0", ans.Explain.RewritingSize)
			}
			if len(ans.Explain.Quantifiers) == 0 {
				t.Error("compiled strategies should report a quantifier plan")
			}
			if ans.Explain.ResultCache != "miss" {
				t.Errorf("first evaluation resultCache = %q, want miss", ans.Explain.ResultCache)
			}
			stages := map[string]bool{}
			var stageSum int64
			for _, st := range ans.Explain.Stages {
				stages[st.Name] = true
				stageSum += st.Nanos
				if st.Nanos < 0 {
					t.Errorf("stage %s has negative duration", st.Name)
				}
			}
			for _, want := range []string{"parse", "prepare", "eval"} {
				if !stages[want] {
					t.Errorf("stages lack %q: %+v", want, ans.Explain.Stages)
				}
			}
			if stageSum > latency {
				t.Errorf("explain stages sum to %dns, more than the %dns the request took", stageSum, latency)
			}

			// The response header, the explain block and /debug/traces name
			// one trace; on an un-routed server it covers parse and eval,
			// spans inside the trace, the trace inside the client's latency.
			if traceID == "" || ans.Explain.TraceID != traceID {
				t.Errorf("explain names trace %q, header names %q", ans.Explain.TraceID, traceID)
			}
			doc := getTraces(t, ts.URL, "?id="+traceID)
			if len(doc.Traces) != 1 {
				t.Fatalf("%d traces for id %s, want 1", len(doc.Traces), traceID)
			}
			tv := doc.Traces[0]
			if tv.DurNanos > latency {
				t.Errorf("trace lasted %dns, more than the %dns the client measured", tv.DurNanos, latency)
			}
			for _, sp := range tv.Spans {
				if sp.DurNanos < 0 || sp.OffsetNanos < 0 || sp.OffsetNanos+sp.DurNanos > tv.DurNanos {
					t.Errorf("span %s [%d,+%d] outside trace duration %d", sp.Name, sp.OffsetNanos, sp.DurNanos, tv.DurNanos)
				}
			}
			spans := spanNames(tv)
			for _, want := range []string{"parse", "eval"} {
				if _, ok := spans[want]; !ok {
					t.Errorf("trace lacks a %s span: %+v", want, tv.Spans)
				}
			}

			// Second ask: plan and result cache both hit.
			resp = postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: c.query, Database: "people", Explain: true})
			ans = decodeBody[CertainResponse](t, resp)
			if ans.Explain.PlanCache != "hit" || ans.Explain.ResultCache != "hit" {
				t.Errorf("repeat explain: planCache=%q resultCache=%q, want hit/hit", ans.Explain.PlanCache, ans.Explain.ResultCache)
			}

			// Inline facts bypass the result cache entirely.
			resp = postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Facts: "R(a | 1)\n", Explain: true})
			ans = decodeBody[CertainResponse](t, resp)
			if ans.Explain == nil || ans.Explain.ResultCache != "" || ans.Explain.ShardPlan != "" {
				t.Errorf("inline explain = %+v, want no result-cache/shard-plan fields", ans.Explain)
			}
		})
	}
}

// TestTraceIDInErrorBodies asserts the satellite contract: admission
// rejections (429) and panic-isolation responses (500) carry the
// request's trace ID in the structured error body, joinable with
// /debug/traces.
func TestTraceIDInErrorBodies(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInFlight: 1})
	// Fill the admission semaphore so the next API request is shed.
	s.sem <- struct{}{}
	resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "people"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	body := decodeBody[ErrorBody](t, resp)
	if traceID == "" || body.Error.TraceID != traceID {
		t.Errorf("429 traceId = %q, header = %q; want equal and non-empty", body.Error.TraceID, traceID)
	}
	<-s.sem

	// Panic isolation: a handler that panics still answers 500 with the
	// request's trace ID in the body.
	h := s.traced(s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})))
	pts := httptest.NewServer(h)
	t.Cleanup(pts.Close)
	resp = postJSON(t, pts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "people"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	traceID = resp.Header.Get(obs.TraceHeader)
	body = decodeBody[ErrorBody](t, resp)
	if traceID == "" || body.Error.TraceID != traceID {
		t.Errorf("500 traceId = %q, header = %q; want equal and non-empty", body.Error.TraceID, traceID)
	}
	if s.reg.Counter("panics_total").Value() == 0 {
		t.Error("panics_total did not move")
	}
}

// Scraping /v1/stats and /v1/shards leaves every trace ring as it was:
// a server's, a router's, and those of the shards the router's scrapes
// fan out to.
func TestScrapesAreNotTraced(t *testing.T) {
	_, ts0 := newTestServer(t, Options{Databases: map[string]*db.Database{}})
	_, ts1 := newTestServer(t, Options{Databases: map[string]*db.Database{}})
	_, single := newTestServer(t, Options{})
	rt := NewRouter(RouterOptions{Shards: []string{ts0.URL, ts1.URL}, Options: Options{Engine: engine.New(engine.Options{})}})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	bases := []string{single.URL, rts.URL, ts0.URL, ts1.URL}
	// A traced read first, so the check below would see a ring move.
	resp := postJSON(t, single.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "people"})
	resp.Body.Close()
	before := make([]tracesDoc, len(bases))
	for i, base := range bases {
		before[i] = getTraces(t, base, "")
	}
	if before[0].Sampled == 0 {
		t.Fatal("the read left no trace: tracing is off, the check below is void")
	}
	for _, base := range bases[:2] {
		for _, path := range []string{"/v1/stats", "/v1/shards"} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if id := resp.Header.Get(obs.TraceHeader); id != "" {
				t.Errorf("GET %s%s traced as %s", base, path, id)
			}
		}
	}
	for i, base := range bases {
		after := getTraces(t, base, "")
		if after.Sampled != before[i].Sampled || len(after.Traces) != len(before[i].Traces) {
			t.Errorf("%s: scrapes moved the trace ring: sampled %d → %d, traces %d → %d",
				base, before[i].Sampled, after.Sampled, len(before[i].Traces), len(after.Traces))
		}
	}
}

// TestRouterStatsAggregation asserts the /v1/stats satellite: the
// router's response has scope "router" and one entry per shard server,
// each carrying that server's own stats; a dead shard degrades to an
// Error entry instead of failing the endpoint.
func TestRouterStatsAggregation(t *testing.T) {
	_, ts0 := newTestServer(t, Options{Databases: map[string]*db.Database{
		"d0": parse.MustDatabase("R(a | 1)\n"),
	}})
	_, ts1 := newTestServer(t, Options{Databases: map[string]*db.Database{}})
	rt := NewRouter(RouterOptions{Shards: []string{ts0.URL, ts1.URL}, Options: Options{Engine: engine.New(engine.Options{})}})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	resp, err := http.Get(rts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[StatsResponse](t, resp)
	if stats.Scope != "router" {
		t.Errorf("router stats scope = %q", stats.Scope)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("router stats has %d shard entries, want 2", len(stats.Shards))
	}
	for i, e := range stats.Shards {
		if e.Index != i || e.Error != "" || e.Stats == nil {
			t.Fatalf("shard entry %d = %+v, want live stats", i, e)
		}
		if e.Stats.Scope != "primary" {
			t.Errorf("shard %d scope = %q, want primary", i, e.Stats.Scope)
		}
	}

	ts1.Close()
	resp, err = http.Get(rts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats with a dead shard: status %d, want 200", resp.StatusCode)
	}
	stats = decodeBody[StatsResponse](t, resp)
	if stats.Shards[0].Error != "" || stats.Shards[0].Stats == nil {
		t.Errorf("live shard entry degraded: %+v", stats.Shards[0])
	}
	if stats.Shards[1].Error == "" || stats.Shards[1].Stats != nil {
		t.Errorf("dead shard entry = %+v, want Error set and no stats", stats.Shards[1])
	}
}
