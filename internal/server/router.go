package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"cqa/internal/db"
	"cqa/internal/metrics"
	"cqa/internal/obs"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// Router is the cross-process serving tier: it fronts N shard servers
// (each an ordinary cqad holding one slice of every database's blocks),
// partitions writes by block owner, and scatter-gathers reads.
//
//   - Writes: each fact routes to shard.Owner(rel, key, N); relation
//     signatures are broadcast to every shard so negated atoms find
//     their (possibly empty) relations everywhere.
//   - Co-located reads (scatter plans, shard.PlanFor): every valuation's
//     facts lie on one shard — all keys ground with one owner, or every
//     atom carrying the same key tuple — so the request is forwarded as
//     it arrived to the planned shards, which answer locally, and the
//     verdicts OR-combine (docs/SHARDING.md). The router prepares
//     nothing and holds no facts on this path.
//   - True cross-shard joins (union plans): the planned shards' facts —
//     only the pinned blocks when every key is ground — are fetched,
//     merged, and evaluated on the router's own engine (rt.gather).
//
// A dead shard degrades serving: queries whose touched set avoids it are
// answered exactly; queries that need it get 503 partial_result. The
// router holds no durable state, so a restarted shard rejoins the
// moment its process is back — routing is pure hashing.
type Router struct {
	inner  *Server
	shards []string
	client *http.Client
	// watchClient issues the long-lived per-shard watch streams; it has
	// no overall timeout (client disconnect cancels via context).
	watchClient *http.Client
	handler     http.Handler
	// scatterReads and gatherReads are router_read_total{plan}.
	scatterReads, gatherReads *metrics.Counter
	// rpcs holds shard i's shard_rpc_latency{shard} and
	// shard_rpc_total{shard,outcome} series.
	rpcs []shardRPC
}

// shardRPC is one shard's RPC series.
type shardRPC struct {
	latency    *metrics.Histogram
	ok, failed *metrics.Counter
}

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Shards are the shard servers' base URLs, in shard order. The
	// length fixes N: block i of a write and the touched-shard set of a
	// read use shard.Owner over this count.
	Shards []string
	// Options configures the router's local serving half (engine,
	// admission control, timeouts, metrics). Stores and Databases are
	// ignored: the router holds no data.
	Options Options
}

// NewRouter builds the routing tier over the given shard servers.
func NewRouter(opt RouterOptions) *Router {
	opt.Options.Stores = nil
	opt.Options.Databases = nil
	rt := &Router{
		inner:  New(opt.Options),
		shards: opt.Shards,
	}
	// The fan-out client has a 10s timeout. Every admitted read may hold
	// a connection to the same shard; the default pool of 2 per host
	// would close and redial the rest.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = rt.inner.opt.MaxInFlight
	rt.client = &http.Client{Timeout: 10 * time.Second, Transport: tr}
	rt.watchClient = &http.Client{}
	rt.scatterReads = rt.inner.reg.Counter(metrics.Label("router_read_total", "plan", "scatter"))
	rt.gatherReads = rt.inner.reg.Counter(metrics.Label("router_read_total", "plan", "gather"))
	for i := range rt.shards {
		sh := strconv.Itoa(i)
		rt.rpcs = append(rt.rpcs, shardRPC{
			latency: rt.inner.reg.Histogram(metrics.Label("shard_rpc_latency", "shard", sh)),
			ok:      rt.inner.reg.Counter(metrics.Label("shard_rpc_total", "shard", sh, "outcome", "ok")),
			failed:  rt.inner.reg.Counter(metrics.Label("shard_rpc_total", "shard", sh, "outcome", "error")),
		})
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/certain", rt.inner.api("certain", rt.handleCertain))
	// Watch streams are long-lived: registered outside the admission
	// middleware, like the shard servers' own /v1/watch.
	mux.HandleFunc("POST /v1/watch", rt.handleWatch)
	mux.Handle("POST /v1/db/create", rt.inner.api("db_create", rt.handleDBCreate))
	mux.Handle("POST /v1/db/insert", rt.inner.api("db_insert", rt.handleDBWrite(false)))
	mux.Handle("POST /v1/db/delete", rt.inner.api("db_delete", rt.handleDBWrite(true)))
	mux.HandleFunc("GET /v1/db/info", rt.handleDBInfo)
	mux.HandleFunc("GET /v1/shards", rt.handleShards)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	// Everything else — classify, health, metrics, traces — is served by
	// the local half, which answers 404 for paths it does not route.
	mux.Handle("/", rt.inner.Handler())
	// traced is outermost so fan-out endpoints get a trace covering every
	// per-shard RPC span; the local half's own middleware sees the trace
	// in the context and does not mint a second one.
	rt.handler = rt.inner.traced(rt.inner.recoverPanics(mux))
	return rt
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Inner exposes the local serving half (engine, registry, drain).
func (rt *Router) Inner() *Server { return rt.inner }

// postJSON posts body as JSON to base+path and decodes the response
// into out.
func (rt *Router) postJSON(ctx context.Context, base, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return rt.post(ctx, base, path, buf, out)
}

// post posts an encoded JSON body to base+path and decodes the response
// into out. Non-2xx responses decode the error envelope into an error.
func (rt *Router) post(ctx context.Context, base, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id := obs.FromContext(ctx).ID(); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeShardResponse(resp, out)
}

// getJSON fetches base+path and decodes the response into out.
func (rt *Router) getJSON(ctx context.Context, base, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	if id := obs.FromContext(ctx).ID(); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeShardResponse(resp, out)
}

// decodeShardResponse decodes a shard server's reply: the payload on
// 2xx, the error envelope otherwise. The body is drained either way —
// the transport only reuses a connection whose reply was read to EOF,
// and the decoder stops at the end of the JSON value.
func decodeShardResponse(resp *http.Response, out any) error {
	defer io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb) == nil && eb.Error.Code != "" {
			return &shardError{status: resp.StatusCode, code: eb.Error.Code, msg: eb.Error.Message}
		}
		return fmt.Errorf("shard returned status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// shardError is a structured failure of a shard interaction — a shard
// server's own rejection, or unusable facts — relayed to the client
// with its status.
type shardError struct {
	status int
	code   string
	msg    string
}

func (e *shardError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

// rpc runs one logical shard interaction under a span and the per-shard
// RPC metrics: shard_rpc_latency{shard} observes the wall clock,
// shard_rpc_total{shard,outcome} counts successes and failures, and a
// failing call marks the span failed (the signal the chaos tests assert
// after a SIGKILL).
func (rt *Router) rpc(ctx context.Context, i int, name string, do func() error) error {
	sp := obs.FromContext(ctx).StartSpan("rpc").SetAttr("shard", strconv.Itoa(i)).SetAttr("op", name)
	start := time.Now()
	err := do()
	m := rt.rpcs[i]
	m.latency.Observe(time.Since(start))
	if err != nil {
		m.failed.Inc()
		sp.Fail(err)
	} else {
		m.ok.Inc()
	}
	sp.End()
	return err
}

// readShard runs a read request against shard i's server. A structured
// shard error (the shard is alive and rejected the request) is returned
// as-is; a connection failure is reported as the shard being
// unreachable.
func (rt *Router) readShard(ctx context.Context, i int, do func(base string) error) error {
	return rt.rpc(ctx, i, "read", func() error {
		err := do(rt.shards[i])
		if _, structured := err.(*shardError); err != nil && !structured {
			return fmt.Errorf("shard %d unreachable: %w", i, err)
		}
		return err
	})
}

// writePartialResult reports a read that needed a dead shard: the
// explicit partial-result error of degraded serving.
func (rt *Router) writePartialResult(w http.ResponseWriter, r *http.Request, err error) {
	rt.inner.m.partialResults.Inc()
	rt.inner.writeErrorTraced(w, r, http.StatusServiceUnavailable, "partial_result",
		fmt.Sprintf("query touches an unreachable shard: %v", err))
}

// handleCertain answers POST /v1/certain on the router. Inline-facts
// requests evaluate locally; named databases follow the query's shard
// plan: forwarded to the owning shards, or gathered and evaluated here.
func (rt *Router) handleCertain(w http.ResponseWriter, r *http.Request) {
	clock := &stageClock{tr: obs.FromContext(r.Context())}
	body, err := rt.inner.readBody(r)
	if err != nil {
		rt.inner.writeDecodeError(w, err)
		return
	}
	req, err := ParseCertainRequest(body)
	if err != nil {
		rt.inner.writeDecodeError(w, err)
		return
	}
	if req.Database == "" {
		rt.inner.serveCertain(w, r, clock, req)
		return
	}
	q, err := rt.inner.parseQuery(w, clock, req.Query)
	if err != nil {
		return
	}
	plan := shard.PlanFor(q, len(rt.shards), nil)
	if plan.Scatter() {
		rt.scatterReads.Inc()
		rt.forwardCertain(w, r, req, body, plan, clock)
		return
	}
	rt.gatherReads.Inc()
	rt.gatherCertain(w, r, req, q, plan, clock)
}

// forwardCertain answers a scatter plan: the request body, already
// validated, goes as it arrived to the planned shards in turn, the
// first true decides, and the last shard's reply is relayed. Preparing
// and evaluating happen on the shards only. The reply carries no
// version: a shard's own is not the global version write acks carry.
func (rt *Router) forwardCertain(w http.ResponseWriter, r *http.Request, req CertainRequest, body []byte, plan shard.Plan, clock *stageClock) {
	var ans CertainResponse
	var err error
	asked := make([]int, 0, len(plan.Shards))
	clock.time("scatter", func() {
		for _, i := range plan.Shards {
			ans = CertainResponse{}
			err = rt.readShard(r.Context(), i, func(base string) error {
				return rt.post(r.Context(), base, "/v1/certain", body, &ans)
			})
			if err != nil {
				return
			}
			asked = append(asked, i)
			if ans.Certain {
				return
			}
		}
	})
	if err != nil {
		rt.relayShardError(w, r, err)
		return
	}
	resp := CertainResponse{Certain: ans.Certain, Verdict: ans.Verdict, Database: req.Database}
	if info := ans.Explain; info != nil {
		// The shard explains its own evaluation; the routing around it is
		// the router's to report.
		info.ShardPlan, info.Shards = plan.Kind, asked
		info.Stages = clock.stages
		info.TraceID = obs.FromContext(r.Context()).ID()
		resp.Explain = info
	}
	rt.inner.writeJSON(w, http.StatusOK, resp)
}

// gatherCertain answers a union plan: the facts the join ranges over
// are gathered from the planned shards and evaluated on the router's
// own engine, which reports the router's plan around them. Ground-key
// joins confined to live shards stay answerable when other shards are
// down.
func (rt *Router) gatherCertain(w http.ResponseWriter, r *http.Request, req CertainRequest, q schema.Query, plan shard.Plan, clock *stageClock) {
	v, err := rt.inner.bounded(r.Context(), func() (any, error) {
		return rt.inner.answerCertain(&certainRead{
			req: req, q: q, clock: clock,
			routed: func(info *ExplainInfo) { info.ShardPlan, info.Shards = plan.Kind, plan.Shards },
			snap: func() (_ store.Snapshot, err error) {
				var merged *db.Database
				clock.time("gather", func() { merged, err = rt.gather(r.Context(), q, req.Database, plan) })
				if err != nil {
					return store.Snapshot{}, gatherError{err}
				}
				return store.Snapshot{DB: merged}, nil
			},
		})
	})
	var ge gatherError
	switch {
	case errors.As(err, &ge):
		rt.relayShardError(w, r, ge.err)
	case err != nil:
		rt.inner.writeWorkError(w, err)
	default:
		rt.inner.writeJSON(w, http.StatusOK, v)
	}
}

// gatherError is a failed gather, relayed as the shard failure it is
// rather than as an evaluation error.
type gatherError struct{ err error }

func (e gatherError) Error() string { return e.err.Error() }

// gather fetches the facts a union plan joins over — the planned
// shards' slices at their served versions, or only the blocks the query
// pins when every key is ground — into one database that declares every
// relation of q.
func (rt *Router) gather(ctx context.Context, q schema.Query, database string, plan shard.Plan) (*db.Database, error) {
	path := "/v1/db/facts?db=" + url.QueryEscape(database)
	if plan.Ground {
		for _, l := range q.Lits {
			block := []string{l.Atom.Rel}
			for _, t := range l.Atom.KeyTerms() {
				block = append(block, t.Name)
			}
			spec, err := json.Marshal(block)
			if err != nil {
				return nil, err
			}
			path += "&block=" + url.QueryEscape(string(spec))
		}
	}
	merged := db.New()
	for _, i := range plan.Shards {
		var fr FactsResponse
		err := rt.readShard(ctx, i, func(base string) error {
			return rt.getJSON(ctx, base, path, &fr)
		})
		if err != nil {
			return nil, err
		}
		if err := mergeFacts(merged, fr); err != nil {
			return nil, &shardError{status: http.StatusBadGateway, code: "bad_shard_facts", msg: err.Error()}
		}
	}
	if err := parse.DeclareQueryRelations(merged, q); err != nil {
		return nil, &shardError{status: http.StatusUnprocessableEntity, code: "bad_query", msg: err.Error()}
	}
	return merged, nil
}

// relayShardError maps a fan-out failure: unknown_database and other
// structured rejections relay with their status; connection failures
// become the 503 partial_result of degraded serving.
func (rt *Router) relayShardError(w http.ResponseWriter, r *http.Request, err error) {
	if se, ok := err.(*shardError); ok {
		rt.inner.writeError(w, se.status, se.code, se.msg)
		return
	}
	rt.writePartialResult(w, r, err)
}

// mergeFacts folds one shard's facts export into dst.
func mergeFacts(dst *db.Database, fr FactsResponse) error {
	for _, sig := range fr.Relations {
		if err := dst.DeclareRelation(sig.Name, sig.Arity, sig.Key); err != nil {
			return err
		}
	}
	d, err := parse.Database(fr.Facts)
	if err != nil {
		return err
	}
	for _, rel := range d.RelationNames() {
		for _, f := range d.Facts(rel) {
			if err := dst.Insert(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// partition splits a parsed batch into per-shard fact texts, routing
// each fact to its block's owner, and collects the batch's relation
// signatures for broadcast.
func (rt *Router) partition(d *db.Database, extra []RelSig) (perShard []string, sigs []RelSig, err error) {
	n := len(rt.shards)
	bufs := make([]strings.Builder, n)
	for _, rel := range d.RelationNames() {
		r := d.Relation(rel)
		sigs = append(sigs, RelSig{Name: rel, Arity: r.Arity, Key: r.Key})
		for _, f := range d.Facts(rel) {
			line, err := parse.FormatFact(f, r.Key)
			if err != nil {
				return nil, nil, err
			}
			owner := shard.Owner(rel, f.Args[:r.Key], n)
			bufs[owner].WriteString(line)
			bufs[owner].WriteByte('\n')
		}
	}
	seen := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		seen[s.Name] = true
	}
	for _, s := range extra {
		if !seen[s.Name] {
			sigs = append(sigs, s)
			seen[s.Name] = true
		}
	}
	perShard = make([]string, n)
	for i := range bufs {
		perShard[i] = bufs[i].String()
	}
	return perShard, sigs, nil
}

// handleDBCreate broadcasts a create: every shard server gets the full
// schema and its slice of the seed facts.
func (rt *Router) handleDBCreate(w http.ResponseWriter, r *http.Request) {
	var req DBCreateRequest
	if err := rt.inner.readRequest(r, &req, req.members()); err != nil {
		rt.inner.writeDecodeError(w, err)
		return
	}
	if req.Name == "" {
		rt.inner.writeError(w, http.StatusBadRequest, "missing_name", "request lacks a database name")
		return
	}
	seed, err := parse.Database(req.Facts)
	if err != nil {
		rt.inner.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
		return
	}
	perShard, sigs, err := rt.partition(seed, req.Declare)
	if err != nil {
		rt.inner.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
		return
	}
	var total uint64
	for i, base := range rt.shards {
		var ack DBWriteResponse
		err := rt.rpc(r.Context(), i, "create", func() error {
			return rt.postJSON(r.Context(), base, "/v1/db/create",
				DBCreateRequest{Name: req.Name, Facts: perShard[i], Declare: sigs}, &ack)
		})
		if err != nil {
			rt.relayWriteError(w, r, i, err)
			return
		}
		total += ack.Version
	}
	rt.inner.writeJSON(w, http.StatusOK, DBWriteResponse{
		Database: req.Name, Version: total, Applied: seed.Size(),
	})
}

// handleDBWrite partitions one write batch across the shard servers.
// Every shard receives the batch's relation signatures (schema
// broadcast) plus its own facts; the acknowledged global version is the
// sum of shard versions.
func (rt *Router) handleDBWrite(del bool) func(w http.ResponseWriter, r *http.Request) {
	path := "/v1/db/insert"
	if del {
		path = "/v1/db/delete"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var req DBWriteRequest
		if err := rt.inner.readRequest(r, &req, req.members()); err != nil {
			rt.inner.writeDecodeError(w, err)
			return
		}
		if req.Database == "" {
			rt.inner.writeError(w, http.StatusBadRequest, "missing_database", "request lacks a database name")
			return
		}
		batch, err := parse.Database(req.Facts)
		if err != nil {
			rt.inner.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
			return
		}
		perShard, sigs, err := rt.partition(batch, req.Declare)
		if err != nil {
			rt.inner.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
			return
		}
		resp := DBWriteResponse{Database: req.Database}
		touched := make(map[string]bool)
		for i, base := range rt.shards {
			var ack DBWriteResponse
			err := rt.rpc(r.Context(), i, "write", func() error {
				return rt.postJSON(r.Context(), base, path,
					DBWriteRequest{Database: req.Database, Facts: perShard[i], Declare: sigs}, &ack)
			})
			if err != nil {
				rt.relayWriteError(w, r, i, err)
				return
			}
			resp.Version += ack.Version
			resp.Applied += ack.Applied
			for _, rel := range ack.Touched {
				touched[rel] = true
			}
		}
		for rel := range touched {
			resp.Touched = append(resp.Touched, rel)
		}
		sort.Strings(resp.Touched)
		rt.inner.writeJSON(w, http.StatusOK, resp)
	}
}

// relayWriteError reports a write fan-out failure. A cross-shard write
// is not atomic: shards before i already applied their slices, so the
// error names the failing shard explicitly (partial_write) rather than
// pretending nothing happened. Structured rejections (exists, bad
// facts) relay as-is.
func (rt *Router) relayWriteError(w http.ResponseWriter, r *http.Request, i int, err error) {
	if se, ok := err.(*shardError); ok {
		rt.inner.writeError(w, se.status, se.code, se.msg)
		return
	}
	rt.inner.m.partialWrites.Inc()
	rt.inner.writeErrorTraced(w, r, http.StatusServiceUnavailable, "partial_write",
		fmt.Sprintf("shard %d failed mid-batch; earlier shards applied their slices: %v", i, err))
}

// handleDBInfo aggregates every shard server's /v1/db/info by database
// name: versions and counters sum, relations union.
func (rt *Router) handleDBInfo(w http.ResponseWriter, r *http.Request) {
	byName := make(map[string]*DBInfo)
	var order []string
	for i := range rt.shards {
		var info DBInfoResponse
		err := rt.readShard(r.Context(), i, func(base string) error {
			return rt.getJSON(r.Context(), base, "/v1/db/info", &info)
		})
		if err != nil {
			rt.writePartialResult(w, r, err)
			return
		}
		for _, d := range info.Databases {
			agg, ok := byName[d.Name]
			if !ok {
				agg = &DBInfo{Name: d.Name, Shards: 0, Durable: d.Durable}
				byName[d.Name] = agg
				order = append(order, d.Name)
			}
			agg.Shards++
			agg.Version += d.Version
			agg.Facts += d.Facts
			agg.WALRecords += d.WALRecords
			agg.SegmentRecords += d.SegmentRecords
			agg.CheckpointVersion += d.CheckpointVersion
			agg.Checkpoints += d.Checkpoints
			for _, rel := range d.Relations {
				if !slices.Contains(agg.Relations, rel) {
					agg.Relations = append(agg.Relations, rel)
				}
			}
		}
	}
	resp := DBInfoResponse{Databases: make([]DBInfo, 0, len(order))}
	for _, name := range order {
		resp.Databases = append(resp.Databases, *byName[name])
	}
	rt.inner.writeJSON(w, http.StatusOK, resp)
}

// handleStats answers GET /v1/stats on the router: the local half's own
// stats under scope "router", plus one aggregated entry per downstream
// shard server. A dead shard yields an
// entry with Error set instead of failing the whole response, so the
// stats endpoint stays useful exactly when shards are down.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := rt.inner.statsResponse()
	resp.Scope = "router"
	for i := range rt.shards {
		entry := ShardStatsEntry{Index: i, URL: rt.shards[i]}
		var st StatsResponse
		err := rt.readShard(r.Context(), i, func(base string) error {
			return rt.getJSON(r.Context(), base, "/v1/stats", &st)
		})
		if err != nil {
			entry.Error = err.Error()
		} else {
			entry.Stats = &st
		}
		resp.Shards = append(resp.Shards, entry)
	}
	rt.inner.writeJSON(w, http.StatusOK, resp)
}

// handleShards reports the router role and per-shard health: each
// shard server is probed with a short /healthz request.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	resp := ShardsResponse{Role: "router", DefaultShards: len(rt.shards)}
	for i, base := range rt.shards {
		h := ShardHealth{Index: i, Primary: base}
		if err := rt.probe(r.Context(), base); err != nil {
			h.Error = err.Error()
		} else {
			h.Alive = true
		}
		resp.Shards = append(resp.Shards, h)
	}
	rt.inner.writeJSON(w, http.StatusOK, resp)
}

// probe checks one server's liveness with a bounded /healthz request.
func (rt *Router) probe(ctx context.Context, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}
