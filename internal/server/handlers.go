package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/obs"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/shard"
	"cqa/internal/sqlgen"
	"cqa/internal/store"
)

// writeJSON writes v with the given status. Encoding failures at this
// point cannot be reported to the client; they surface in errors_total.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.m.errors.Inc()
	}
}

// writeError writes the structured error envelope and counts it.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.writeErrorDetail(w, ErrorDetail{Status: status, Code: code, Message: msg})
}

// writeErrorDetail writes a fully built error detail (writeErrorTraced
// adds the trace ID before calling here).
func (s *Server) writeErrorDetail(w http.ResponseWriter, d ErrorDetail) {
	s.m.errors.Inc()
	if d.Status >= 500 || d.Status == http.StatusTooManyRequests {
		// Shedding and failures must not be cached by intermediaries.
		w.Header().Set("Cache-Control", "no-store")
	}
	s.writeJSON(w, d.Status, ErrorBody{Error: d})
}

// writeDecodeError maps a request-decoding failure to 413 (body over
// MaxBodyBytes) or 400 (everything else) with a structured body.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	s.writeError(w, http.StatusBadRequest, "bad_json", err.Error())
}

// handleClassify answers POST /v1/classify.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req ClassifyRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if req.Query == "" {
		s.writeError(w, http.StatusBadRequest, "missing_query", "request lacks a query")
		return
	}
	q, err := parse.Query(req.Query)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "bad_query", err.Error())
		return
	}
	v, err := s.bounded(r.Context(), func() (any, error) {
		p, err := s.eng.Prepare(q)
		if err != nil {
			return nil, err
		}
		cls := p.Classification()
		resp := ClassifyResponse{
			Query:         cls.Query.String(),
			Verdict:       string(cls.Verdict),
			Guarded:       cls.Guarded,
			WeaklyGuarded: cls.WeaklyGuarded,
			Acyclic:       cls.Acyclic,
			AttackEdges:   cls.Graph.Edges(),
			Hardness:      cls.Hardness,
		}
		if resp.AttackEdges == nil {
			resp.AttackEdges = [][2]string{}
		}
		if cls.CycleF != "" {
			resp.Cycle = []string{cls.CycleF, cls.CycleG}
		}
		if cls.Verdict == core.VerdictFO {
			resp.Rewriting = cls.Rewriting.String()
			sql, err := sqlgen.Translate(cls.Rewriting, sqlgen.Options{})
			if err != nil {
				return nil, fmt.Errorf("sql translation: %w", err)
			}
			resp.SQL = sql
		} else {
			// Non-FO queries are not condemned to repair enumeration: the
			// planner may have a polynomial graph decider for the shape,
			// and searches over block choices otherwise.
			resp.PlannedStrategy = engine.Strategy(p)
			resp.PlannerReason = p.Plan().Reason
		}
		return resp, nil
	})
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, v)
}

// readBody reads r's whole body. A declared length within MaxBodyBytes
// sizes one buffer for it; an unknown or larger one is read by
// io.ReadAll, which the http.MaxBytesReader the admission middleware
// wraps the body in stops at the bound (413).
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	n := r.ContentLength
	if n <= 0 || n > s.opt.MaxBodyBytes {
		return io.ReadAll(r.Body)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// readRequest reads a whole request body and decodes it as decodeRequest does.
func (s *Server) readRequest(r *http.Request, v any, members []member) error {
	body, err := s.readBody(r)
	if err != nil {
		return err
	}
	return decodeRequest(body, v, members)
}

// handleCertain answers POST /v1/certain. The handler is fully
// instrumented: parse/prepare/eval spans hang off the request trace,
// the eval_total{strategy,cache} counter records what ran, and
// `"explain": true` returns the strategy, cache outcomes, rewriting
// size, quantifier plan, shard plan, and per-stage timings.
func (s *Server) handleCertain(w http.ResponseWriter, r *http.Request) {
	clock := &stageClock{tr: obs.FromContext(r.Context())}
	body, err := s.readBody(r)
	if err != nil {
		s.writeDecodeError(w, err)
		return
	}
	req, err := ParseCertainRequest(body)
	if err != nil {
		s.writeDecodeError(w, err)
		return
	}
	s.serveCertain(w, r, clock, req)
}

// serveCertain answers a decoded /v1/certain request; a router hands it
// the inline reads it has decoded.
func (s *Server) serveCertain(w http.ResponseWriter, r *http.Request, clock *stageClock, req CertainRequest) {
	q, err := s.parseQuery(w, clock, req.Query)
	if err != nil {
		return
	}
	var snap store.Snapshot
	if req.Database != "" {
		// Named databases are versioned stores, read on one snapshot
		// through the engine's result cache.
		st := s.stores.Get(req.Database)
		if st == nil {
			s.writeError(w, http.StatusNotFound, "unknown_database",
				fmt.Sprintf("no database named %q", req.Database))
			return
		}
		snap = st.Snapshot()
	} else {
		var d *db.Database
		err := clock.stage("parse-facts", func(*obs.Span) (err error) {
			if d, err = parse.Database(req.Facts); err == nil {
				err = parse.DeclareQueryRelations(d, q)
			}
			return err
		})
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
			return
		}
		snap.DB = d
	}
	v, err := s.bounded(r.Context(), func() (any, error) {
		return s.answerCertain(&certainRead{
			req: req, q: q, clock: clock, db: req.Database,
			snap: func() (store.Snapshot, error) { return snap, nil },
		})
	})
	if err != nil {
		s.writeWorkError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, v)
}

// parseQuery runs the parse stage of a read; a bad query is answered
// here and its error returned.
func (s *Server) parseQuery(w http.ResponseWriter, clock *stageClock, src string) (schema.Query, error) {
	var q schema.Query
	err := clock.stage("parse", func(*obs.Span) (err error) {
		q, err = parse.Query(src)
		return err
	})
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "bad_query", err.Error())
	}
	return q, err
}

// certainRead is one /v1/certain read as answerCertain takes it, from
// any of the three read paths.
type certainRead struct {
	req   CertainRequest
	q     schema.Query
	clock *stageClock
	// db names the store whose result cache the read goes through; ""
	// for inline facts and router-gathered reads, which bypass it and
	// report neither a version nor a result-cache outcome.
	db string
	// snap yields what the read evaluates on. It runs between the prepare
	// and eval stages, where a router gathers its facts.
	snap func() (store.Snapshot, error)
	// routed reports the router's own plan around a gathered read in its
	// explain; nil for a server's own reads.
	routed func(*ExplainInfo)
}

// answerCertain is the one evaluation of a /v1/certain read — named,
// inline and router-gathered alike: the prepare stage (Engine.Plan), the
// eval stage (Engine.Answer, through the result cache for a named
// database), the eval_total count, and the response with its explain.
func (s *Server) answerCertain(rd *certainRead) (any, error) {
	var read engine.Read
	var strategy string
	err := rd.clock.stage("prepare", func(sp *obs.Span) (err error) {
		if read, err = s.eng.Plan(rd.q); err != nil {
			return err
		}
		strategy = engine.Strategy(read.Prepared)
		sp.SetAttr("planCache", cacheOutcome(read.Hit)).SetAttr("strategy", strategy)
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap, err := rd.snap()
	if err != nil {
		return nil, err
	}
	var ans answer
	err = rd.clock.stage("eval", func(sp *obs.Span) (err error) {
		ans.certain, ans.cache, err = s.eng.Answer(read, rd.db, snap)
		if err == nil && rd.db != "" {
			sp.SetAttr("resultCache", ans.cache).SetAttr("shardPlan", shard.PlanSingle)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if c := s.m.evals[[2]string{strategy, ans.cache}]; c != nil {
		c.Inc()
	}
	return s.certainResponse(rd, read, strategy, snap, &ans), nil
}

// answer is what Engine.Answer reported for one read.
type answer struct {
	certain bool
	cache   string
}

// certainResponse is the reply to an answered read. It is kept out of
// answerCertain so that the stack a read's stages run on stays shallow:
// the evaluation runs on a fresh goroutine, whose small starting stack
// would otherwise be copied to a larger one on every read.
func (s *Server) certainResponse(rd *certainRead, read engine.Read, strategy string, snap store.Snapshot, ans *answer) CertainResponse {
	p := read.Prepared
	resp := CertainResponse{
		Certain:  ans.certain,
		Verdict:  string(p.Verdict()),
		Database: rd.req.Database,
	}
	if rd.db != "" {
		cached := ans.cache == engine.CacheHit
		resp.Version, resp.Cached = snap.Version, &cached
	}
	if !rd.req.Explain {
		return resp
	}
	info := explainFor(p, strategy, cacheOutcome(read.Hit), rd.clock)
	if rd.db != "" {
		info.ResultCache, info.ShardPlan, info.Shards = ans.cache, shard.PlanSingle, []int{0}
	}
	if rd.routed != nil {
		rd.routed(info)
	} else if !p.InFO() {
		// The planner's decision is recorded against the evaluated
		// snapshot. FO queries carry their plan in the rewriting fields.
		info.PlanDecision = p.Decision(snap.DB)
	}
	resp.Explain = info
	return resp
}

// explainFor assembles the common part of an ExplainInfo; callers fill
// in the result-cache and shard-plan fields that apply to their path.
func explainFor(p *core.Prepared, strategy, planCache string, clock *stageClock) *ExplainInfo {
	info := &ExplainInfo{
		Strategy:      strategy,
		PlanCache:     planCache,
		RewritingSize: p.RewritingSize(),
		Stages:        clock.stages,
		TraceID:       clock.tr.ID(),
	}
	if p.InFO() {
		info.Quantifiers = p.PlanSummary()
	}
	if info.Stages == nil {
		info.Stages = []ExplainStage{}
	}
	return info
}

// writeWorkError maps evaluation-stage failures: context expiry becomes
// the timeout response, engine shutdown 503, anything else 422.
func (s *Server) writeWorkError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.m.timeouts.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "timeout",
			fmt.Sprintf("request exceeded the per-request timeout (%s)", s.opt.RequestTimeout))
	case errors.Is(err, engine.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is draining")
	default:
		s.writeError(w, http.StatusUnprocessableEntity, "classify_failed", err.Error())
	}
}

// handleStats answers GET /v1/stats with engine and server counters,
// daemon uptime, and the plan/result cache hit ratios. On a router the
// response is built by Router.handleStats instead, which adds the
// aggregated per-shard entries.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.statsResponse())
}

// statsResponse assembles this server's own StatsResponse.
func (s *Server) statsResponse() StatsResponse {
	st := s.eng.Stats()
	resp := StatsResponse{
		Scope:         "primary",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Engine: EngineStats{
			CacheHits:           st.CacheHits,
			CacheMisses:         st.CacheMisses,
			CacheEvictions:      st.CacheEvictions,
			CachedPlans:         st.CachedPlans,
			ResultHits:          st.ResultHits,
			ResultMisses:        st.ResultMisses,
			ResultInvalidations: st.ResultInvalidations,
			ResultCarried:       st.ResultCarried,
			CachedResults:       st.CachedResults,
		},
		Server: s.reg.Values(),
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		resp.Engine.CacheHitRate = float64(st.CacheHits) / float64(total)
	}
	if total := st.ResultHits + st.ResultMisses; total > 0 {
		resp.Engine.ResultHitRate = float64(st.ResultHits) / float64(total)
	}
	return resp
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 503 once draining has begun.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics answers GET /metrics in the Prometheus text exposition
// format (version 0.0.4): one TYPE line per family, labeled series for
// per-endpoint, per-shard, per-strategy, and cache-outcome instruments,
// histograms as cumulative buckets in seconds. metrics.LintPrometheus
// guards the format in tests and `make obs-smoke`.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.m.errors.Inc()
	}
}
