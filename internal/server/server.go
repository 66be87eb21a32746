// Package server exposes the certainty engine (internal/engine) as an
// HTTP/JSON service: classification, CERTAINTY checks of one query on
// one database, named-database writes and watches, with admission
// control, per-request timeouts, request-size limits, panic isolation,
// and operational endpoints (/healthz, /readyz, /metrics, /v1/stats,
// /debug/traces). /metrics and /v1/stats render one metrics registry,
// whose fixed series are resolved once when the server is built.
// Profiling is not mounted on the API port; cqad serves it on a
// separate -pprof-addr listener. Stdlib only; see docs/SERVING.md for
// the API contract.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"cqa/internal/db"
	"cqa/internal/delta"
	"cqa/internal/engine"
	"cqa/internal/metrics"
	"cqa/internal/obs"
	"cqa/internal/store"
)

// Options configures a Server. The zero value of every field selects a
// sensible default; Engine is the only field commonly set.
type Options struct {
	// Engine answers the requests; nil creates a default engine.New.
	Engine *engine.Engine
	// Databases are the preloaded databases addressable by name in
	// /v1/certain and /v1/watch. Each is wrapped in a memory-only
	// versioned store (store.NewMem), so they are also writable through
	// /v1/db/insert and /v1/db/delete. The map and its databases must not
	// be mutated after New.
	Databases map[string]*db.Database
	// Stores is the store set behind the named-database API, one store
	// per database; nil creates an empty memory-only set. Databases
	// entries whose name is not already a member are adopted into it. The
	// server registers each member's OnApply hook (result-cache
	// invalidation + metrics), so members handed in here must not have
	// their own OnApply.
	Stores *store.Set
	// MaxInFlight bounds concurrently admitted API requests; excess
	// requests are shed with 429 + Retry-After. ≤ 0 selects 64.
	MaxInFlight int
	// RequestTimeout bounds each API request's work; ≤ 0 selects 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies; over-limit requests get 413.
	// ≤ 0 selects 1 MiB.
	MaxBodyBytes int64
	// WatchHeartbeat is the /v1/watch heartbeat cadence; ≤ 0 selects
	// DefaultWatchHeartbeat.
	WatchHeartbeat time.Duration
	// Metrics receives request counters and latencies; nil creates a
	// fresh registry (exposed via Registry).
	Metrics *metrics.Registry
	// Tracer records per-request traces served at GET /debug/traces; nil
	// creates a default tracer (record everything, obs.DefaultBuffer
	// traces retained). Disable by passing a tracer built with a negative
	// TracerOptions.Sample.
	Tracer *obs.Tracer
}

// Server is the HTTP front end. Create with New, serve via Handler, and
// flip readiness with Drain during shutdown. Safe for concurrent use.
type Server struct {
	opt      Options
	eng      *engine.Engine
	stores   *store.Set
	reg      *metrics.Registry
	tracer   *obs.Tracer
	sem      chan struct{}
	draining atomic.Bool
	handler  http.Handler
	start    time.Time
	m        serverMetrics
}

// serverMetrics are the server's fixed series, resolved once in New:
// the request path holds only these handles.
type serverMetrics struct {
	requests, rejected, timeouts, errors, panics *metrics.Counter
	partialResults, partialWrites                *metrics.Counter
	walRecords, carried                          *metrics.Counter
	inflight, watchActive, watchFanin, version   *metrics.Gauge
	latency                                      *metrics.Histogram
	// byEndpoint is requests_by_endpoint_total{endpoint}; evals is
	// eval_total{strategy,cache}, keyed {strategy, cache}.
	byEndpoint map[string]*metrics.Counter
	evals      map[[2]string]*metrics.Counter
}

// New builds a server over the given options.
func New(opt Options) *Server {
	if opt.Engine == nil {
		opt.Engine = engine.New(engine.Options{})
	}
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = 64
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 10 * time.Second
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 1 << 20
	}
	if opt.Metrics == nil {
		opt.Metrics = metrics.NewRegistry()
	}
	if opt.Tracer == nil {
		opt.Tracer = obs.NewTracer(obs.TracerOptions{})
	}
	if opt.Stores == nil {
		// Dir == "" cannot fail: no directory is scanned.
		opt.Stores, _ = store.OpenSet(store.Options{})
	}
	s := &Server{
		opt:    opt,
		eng:    opt.Engine,
		stores: opt.Stores,
		reg:    opt.Metrics,
		tracer: opt.Tracer,
		sem:    make(chan struct{}, opt.MaxInFlight),
		start:  time.Now(),
	}
	// Every fixed series is resolved here, once: creating a handle
	// registers it, so /metrics lists it at zero before traffic.
	m := &s.m
	m.requests = s.reg.Counter("requests_total")
	m.rejected = s.reg.Counter("rejected_total")
	m.timeouts = s.reg.Counter("timeouts_total")
	m.errors = s.reg.Counter("errors_total")
	m.panics = s.reg.Counter("panics_total")
	m.partialResults = s.reg.Counter("partial_result_total")
	m.partialWrites = s.reg.Counter("partial_write_total")
	m.walRecords = s.reg.Counter("wal_records")
	m.carried = s.reg.Counter("result_cache_carried_total")
	m.inflight = s.reg.Gauge("requests_inflight")
	m.watchActive = s.reg.Gauge("watch_active")
	m.watchFanin = s.reg.Gauge("watch_fanin")
	m.version = s.reg.Gauge("snapshot_version")
	m.latency = s.reg.Histogram("request_latency")
	m.byEndpoint = make(map[string]*metrics.Counter)
	for _, e := range []string{"classify", "certain", "db_create", "db_insert", "db_delete"} {
		m.byEndpoint[e] = s.reg.Counter(metrics.Label("requests_by_endpoint_total", "endpoint", e))
	}
	m.evals = make(map[[2]string]*metrics.Counter)
	for _, st := range engine.Strategies {
		for _, c := range []string{engine.CacheHit, engine.CacheMiss, engine.CacheBypass} {
			m.evals[[2]string{st, c}] = s.reg.Counter(metrics.Label("eval_total", "strategy", st, "cache", c))
		}
	}
	reevals := make(map[string]*metrics.Counter)
	for _, o := range []string{delta.OutcomeSkipped, delta.OutcomeReevaluated, delta.OutcomeFlipped} {
		reevals[o] = s.reg.Counter(metrics.Label("delta_reeval_total", "outcome", o))
	}
	s.reg.SetFunc("traces_sampled", func() float64 { n, _, _ := s.tracer.Stats(); return float64(n) })
	s.reg.SetFunc("traces_dropped", func() float64 { _, n, _ := s.tracer.Stats(); return float64(n) })
	s.reg.SetFunc("slow_queries", func() float64 { _, _, n := s.tracer.Stats(); return float64(n) })
	s.reg.SetFunc("engine_cache_hit_rate", func() float64 {
		st := s.eng.Stats()
		if total := st.CacheHits + st.CacheMisses; total > 0 {
			return float64(st.CacheHits) / float64(total)
		}
		return 0
	})

	// The delta layer reports its decisions and flips through the
	// server's registry; install the hooks before the stores attach so
	// no change outruns them. Flips and invalidations are labeled by
	// data (database, relation), so those two are looked up by name.
	s.eng.SetWatchHooks(engine.WatchHooks{
		OnReeval: func(_, outcome string) {
			if c := reevals[outcome]; c != nil {
				c.Inc()
			}
		},
		OnFlip: func(db string) {
			s.reg.Counter(metrics.Label("watch_flips_total", "db", db)).Inc()
		},
		OnFanin: func(watches, entries int) {
			// Subscriptions answered by another subscription's shared
			// evaluation (identical signature on the same database).
			m.watchFanin.Set(int64(watches - entries))
		},
		OnInvalidate: func(rel string) {
			s.reg.Counter(metrics.Label("result_cache_invalidations_total", "rel", rel)).Inc()
		},
		OnCarry: func(n int) { m.carried.Add(uint64(n)) },
		Tracer:  s.tracer,
	})
	// Preloaded databases become memory-only stores; a durable store that
	// already claimed the name wins (the preload seeded it originally).
	for name, d := range opt.Databases {
		if s.stores.Get(name) == nil {
			_ = s.stores.Adopt(store.NewMem(name, d))
		}
	}
	for _, name := range s.stores.Names() {
		s.attach(name, s.stores.Get(name))
	}

	mux := http.NewServeMux()
	mux.Handle("POST /v1/classify", s.api("classify", s.handleClassify))
	mux.Handle("POST /v1/certain", s.api("certain", s.handleCertain))
	mux.Handle("POST /v1/db/create", s.api("db_create", s.handleDBCreate))
	mux.Handle("POST /v1/db/insert", s.api("db_insert", s.handleDBWrite(false)))
	mux.Handle("POST /v1/db/delete", s.api("db_delete", s.handleDBWrite(true)))
	mux.HandleFunc("GET /v1/db/info", s.handleDBInfo)
	mux.HandleFunc("GET /v1/shards", s.handleShards)
	mux.HandleFunc("GET /v1/db/facts", s.handleDBFacts)
	// Watch streams are long-lived by design: registered outside the
	// api() middleware so a watcher neither occupies an admission slot
	// nor trips the per-request timeout.
	mux.HandleFunc("POST /v1/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	// The trace middleware is outermost so panic-isolation responses can
	// carry the request's trace ID.
	s.handler = s.traced(s.recoverPanics(mux))
	return s
}

// attach wires one store into the server: its writes carry or
// invalidate the engine's cached results and reach its watches (the hook
// runs under the store's writer lock, after publication, so ApplyChange
// sees versions in order and the snapshot it is handed is the write's)
// and feed the store metrics. Each effective mutation of a durable store
// is one WAL record; a memory-only store writes none.
func (s *Server) attach(name string, st *store.Store) {
	s.m.version.Max(int64(st.Version()))
	durable := st.Durable()
	st.SetOnApply(func(c store.Change) {
		s.eng.ApplyChange(name, c, st.Snapshot())
		if durable {
			s.m.walRecords.Add(uint64(c.Applied))
		}
		s.m.version.Max(int64(c.Version))
	})
}

// Handler returns the fully middleware-wrapped handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain marks the server not-ready: /readyz starts answering 503 so load
// balancers stop routing here, while in-flight and straggler requests
// keep being served. Call before http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// api wraps an API handler with admission control, the body-size limit,
// the per-request timeout, and request metrics. Every arrival counts in
// requests_total and requests_by_endpoint_total{endpoint}, shed or not.
func (s *Server) api(endpoint string, h func(w http.ResponseWriter, r *http.Request)) http.Handler {
	arrivals := s.m.byEndpoint[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		arrivals.Inc()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.m.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			s.writeErrorTraced(w, r, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("server at max in-flight requests (%d)", s.opt.MaxInFlight))
			return
		}
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)
		start := time.Now()
		defer func() { s.m.latency.Observe(time.Since(start)) }()

		r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	})
}

// recoverPanics is the outermost middleware: a panicking handler becomes
// a 500 with a structured body instead of a dead connection.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.m.panics.Inc()
				s.writeErrorTraced(w, r, http.StatusInternalServerError, "internal_panic",
					fmt.Sprintf("handler panicked: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// bounded runs fn under the request context: when the context expires
// first, the work keeps running in its goroutine (evaluation is not
// interruptible mid-formula) but the request gets a timeout error.
// Panics inside fn — which runs outside the middleware goroutine —
// become errors here.
func (s *Server) bounded(ctx context.Context, fn func() (any, error)) (any, error) {
	done := make(chan struct{})
	var v any
	var err error
	go func() {
		defer close(done)
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("evaluation panicked: %v", rec)
			}
		}()
		v, err = fn()
	}()
	select {
	case <-done:
		return v, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
