package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"cqa/internal/obs"
)

// Request tracing: the outermost middleware mints (or joins) a trace per
// API request, carries it through the request context so handlers — and,
// on a router, the per-shard RPCs — hang spans off it, and publishes it
// to the tracer's ring buffer at GET /debug/traces. A request arriving
// with an X-CQA-Trace header joins that trace ID instead of minting one,
// which is how one traced /v1/certain through the router yields a single
// trace ID covering the router and every contacted shard. See
// docs/OBSERVABILITY.md for the trace model.

// traced wraps the whole handler chain in one trace per API request. The
// trace ID is echoed in the X-CQA-Trace response header on every traced
// request, including errors.
func (s *Server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !traceablePath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if obs.FromContext(r.Context()) != nil {
			// Already traced by an enclosing middleware (a router falling
			// through to its local half); don't mint a second trace.
			next.ServeHTTP(w, r)
			return
		}
		tr := s.tracer.Start(r.Method+" "+r.URL.Path, r.Header.Get(obs.TraceHeader))
		if tr == nil { // tracing disabled or sampled out
			next.ServeHTTP(w, r)
			return
		}
		defer tr.Finish()
		w.Header().Set(obs.TraceHeader, tr.ID())
		next.ServeHTTP(w, r.WithContext(obs.With(r.Context(), tr)))
	})
}

// traceablePath excludes operational probes: scrapes and health checks
// would flood the ring. The JSON scrapes count too: a router's /v1/stats
// and /v1/shards fan out to every shard.
func traceablePath(p string) bool {
	switch p {
	case "/healthz", "/readyz", "/metrics", "/debug/traces", "/v1/stats", "/v1/shards":
		return false
	}
	return !strings.HasPrefix(p, "/debug/pprof")
}

// writeErrorTraced is writeError plus the request's trace ID in the
// body, so structured errors join with /debug/traces entries.
func (s *Server) writeErrorTraced(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	s.writeErrorDetail(w, ErrorDetail{
		Status: status, Code: code, Message: msg,
		TraceID: obs.FromContext(r.Context()).ID(),
	})
}

// handleDebugTraces serves the tracer's ring buffer, newest first.
// Query parameters: id (exact trace ID), min (Go duration, e.g. 50ms),
// limit (max entries, default the full ring).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	var q obs.Query
	q.ID = r.URL.Query().Get("id")
	if v := r.URL.Query().Get("min"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_min", err.Error())
			return
		}
		q.MinDur = d
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_limit", err.Error())
			return
		}
		q.Limit = n
	}
	sampled, dropped, slow := s.tracer.Stats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"sampled": sampled,
		"dropped": dropped,
		"slow":    slow,
		"traces":  s.tracer.Snapshot(q),
	})
}

// cacheOutcome names a boolean cache result for metric labels and
// explain output.
func cacheOutcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// stageClock is one request's stage measurement: named wall-clock
// timings for explain output, and the request trace (nil when untraced)
// its stages hang spans off. Not safe for concurrent use (each request
// owns one).
type stageClock struct {
	tr     *obs.Trace
	stages []ExplainStage
}

// time runs fn as one named stage and records its duration.
func (c *stageClock) time(name string, fn func()) {
	start := time.Now()
	fn()
	c.stages = append(c.stages, ExplainStage{Name: name, Nanos: time.Since(start).Nanoseconds()})
}

// stage runs fn as one named stage under a span of the same name: the
// span opens before the timing starts, fn may annotate it, and an error
// fn returns marks it failed and is passed on.
func (c *stageClock) stage(name string, fn func(sp *obs.Span) error) error {
	sp := c.tr.StartSpan(name)
	start := time.Now()
	err := fn(sp)
	c.stages = append(c.stages, ExplainStage{Name: name, Nanos: time.Since(start).Nanoseconds()})
	sp.Fail(err)
	sp.End()
	return err
}
