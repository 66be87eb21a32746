package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"cqa/internal/planner"
)

// Wire types of the HTTP/JSON API. See docs/SERVING.md for the contract.

// ClassifyRequest asks for the Theorem 4.3 classification of one query.
type ClassifyRequest struct {
	Query string `json:"query"`
}

// ClassifyResponse reports the classification, and — when CERTAINTY(q)
// is in FO — the consistent first-order rewriting and its SQL form. For
// non-FO queries it instead reports the strategy the planner selected
// (hardness does not mean repair enumeration: the recognized cyclic
// shapes are served by polynomial graph deciders and the others by
// search over block choices, docs/PLANNER.md) and the planner's
// justification.
type ClassifyResponse struct {
	Query         string      `json:"query"`
	Verdict       string      `json:"verdict"`
	Guarded       bool        `json:"guarded"`
	WeaklyGuarded bool        `json:"weaklyGuarded"`
	Acyclic       bool        `json:"acyclic"`
	AttackEdges   [][2]string `json:"attackEdges"`
	Hardness      string      `json:"hardness,omitempty"`
	Cycle         []string    `json:"cycle,omitempty"`
	Rewriting     string      `json:"rewriting,omitempty"`
	SQL           string      `json:"sql,omitempty"`
	// PlannedStrategy is the evaluation strategy this server will execute
	// for the query ("matching", "reachability", "repair-search"); set for
	// non-FO verdicts only.
	PlannedStrategy string `json:"plannedStrategy,omitempty"`
	// PlannerReason justifies the planner's selection (non-FO only).
	PlannerReason string `json:"plannerReason,omitempty"`
}

// CertainRequest asks CERTAINTY(q) on one database: either inline fact
// text (the cqa database syntax, one fact per line) or the name of a
// database preloaded by the daemon. Exactly one of Facts and Database
// must be set.
type CertainRequest struct {
	Query    string `json:"query"`
	Facts    string `json:"facts,omitempty"`
	Database string `json:"database,omitempty"`
	// Explain asks for an ExplainInfo in the response: the evaluation
	// strategy actually executed, cache outcomes, the rewriting size and
	// quantifier-restriction plan, and per-stage timings.
	Explain bool `json:"explain,omitempty"`
}

// members lists the fields decodeFlat fills.
func (r *CertainRequest) members() []member {
	return []member{{name: "query", str: &r.Query}, {name: "facts", str: &r.Facts},
		{name: "database", str: &r.Database}, {name: "explain", flag: &r.Explain}}
}

// CertainResponse is the answer for one database. For a named database
// the response also carries the store version the answer is valid at and
// whether it came from the versioned result cache.
type CertainResponse struct {
	Certain  bool         `json:"certain"`
	Verdict  string       `json:"verdict"`
	Database string       `json:"database,omitempty"`
	Version  uint64       `json:"version,omitempty"`
	Cached   *bool        `json:"cached,omitempty"`
	Explain  *ExplainInfo `json:"explain,omitempty"`
}

// ExplainInfo is the `"explain": true` payload: what the engine chose
// and what it cost, stage by stage. Strategy names come from
// engine.Strategy ("compiled-bitmap", "compiled", "matching",
// "reachability", "repair-search"); shard plans are
// shard.PlanFor kinds ("single", "pinned", "scatter", "union"). See
// docs/OBSERVABILITY.md for the schema contract.
type ExplainInfo struct {
	// Strategy is the evaluation strategy actually executed.
	Strategy string `json:"strategy"`
	// PlanCache is "hit" or "miss" — whether the prepared plan came from
	// the engine's plan cache.
	PlanCache string `json:"planCache"`
	// ResultCache is "hit", "miss", or "" when the request bypassed the
	// versioned result cache (inline facts).
	ResultCache string `json:"resultCache,omitempty"`
	// RewritingSize is the node count of the consistent FO rewriting
	// (0 when CERTAINTY(q) is not in FO).
	RewritingSize int `json:"rewritingSize"`
	// Quantifiers summarizes the compiled quantifier-restriction plan,
	// one line per binder slot ("s0 ∈ R.1", "s1 ∈ min(R.0, S.1)", …).
	Quantifiers []string `json:"quantifiers,omitempty"`
	// ShardPlan and Shards report how a named-database evaluation was
	// spread over shards (absent for inline facts): on a cqad, which
	// keeps one store per database, always "single" and [0]. On a
	// router they are its shard.PlanFor kind and the shard servers
	// actually asked, around the answering server's own explain.
	ShardPlan string `json:"shardPlan,omitempty"`
	Shards    []int  `json:"shards,omitempty"`
	// PlanDecision is the planner's recorded strategy selection for
	// non-FO queries: the graph decider (or naive fallback) chosen, why,
	// and the relation statistics consulted on the evaluated snapshot.
	// Absent for FO queries (their plan is the rewriting, reported via
	// RewritingSize and Quantifiers) and in batch explains (the
	// decision is per database).
	PlanDecision *planner.Decision `json:"planDecision,omitempty"`
	// Stages holds per-stage wall-clock timings in request order.
	Stages []ExplainStage `json:"stages"`
	// TraceID joins this explain with the trace recorded for the request
	// (empty when tracing is disabled).
	TraceID string `json:"traceId,omitempty"`
}

// ExplainStage is one timed stage of a request (parse, prepare, eval, …).
type ExplainStage struct {
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
}

// RelSig is one relation signature: name, arity, and the length of the
// primary-key prefix.
type RelSig struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
	Key   int    `json:"key"`
}

// DBCreateRequest asks for a new named database, optionally seeded with
// inline facts (the cqa database syntax, one fact per line). Declare
// registers relation signatures explicitly — the fact syntax can only
// infer signatures from facts, so relations that must exist empty (a
// router broadcasting a schema across shard servers) are declared here.
type DBCreateRequest struct {
	Name    string   `json:"name"`
	Facts   string   `json:"facts,omitempty"`
	Declare []RelSig `json:"declare,omitempty"`
}

// members lists the fields decodeFlat fills. Declare is not among them:
// a body that declares takes the decodeJSON path.
func (r *DBCreateRequest) members() []member {
	return []member{{name: "name", str: &r.Name}, {name: "facts", str: &r.Facts}}
}

// DBWriteRequest applies one atomic batch of facts to a named database
// (POST /v1/db/insert and /v1/db/delete). Declare registers relation
// signatures that ride with the batch (see DBCreateRequest.Declare).
type DBWriteRequest struct {
	Database string   `json:"database"`
	Facts    string   `json:"facts"`
	Declare  []RelSig `json:"declare,omitempty"`
}

// members lists the fields decodeFlat fills; as for DBCreateRequest, a
// body that declares takes the decodeJSON path.
func (r *DBWriteRequest) members() []member {
	return []member{{name: "database", str: &r.Database}, {name: "facts", str: &r.Facts}}
}

// DBWriteResponse acknowledges a write: the version the batch took (the
// current version when nothing took effect), how many mutations took
// effect (no-ops are filtered), and the relations the batch touched.
type DBWriteResponse struct {
	Database string   `json:"database"`
	Version  uint64   `json:"version"`
	Applied  int      `json:"applied"`
	Touched  []string `json:"touched,omitempty"`
}

// DBInfoResponse lists every named database (GET /v1/db/info).
type DBInfoResponse struct {
	Databases []DBInfo `json:"databases"`
}

// DBInfo describes one named database from one snapshot. A cqad keeps
// one store per database, so Shards is 1; a router sums Version and the
// durability counters over its shard servers and counts them in Shards.
type DBInfo struct {
	Name              string   `json:"name"`
	Version           uint64   `json:"version"`
	Shards            int      `json:"shards"`
	Facts             int      `json:"facts"`
	Relations         []string `json:"relations"`
	Durable           bool     `json:"durable"`
	WALRecords        uint64   `json:"walRecords"`
	SegmentRecords    uint64   `json:"segmentRecords"`
	CheckpointVersion uint64   `json:"checkpointVersion"`
	Checkpoints       uint64   `json:"checkpoints"`
}

// ShardsResponse is the GET /v1/shards payload: the serving role and
// the stores of every named database — one each on a cqad.
type ShardsResponse struct {
	// Role is "primary" or "router".
	Role string `json:"role"`
	// DefaultShards is 1 on a cqad, the shard-server count on a router.
	DefaultShards int `json:"defaultShards"`
	// Databases lists every member with per-shard stats; on a router it
	// instead summarizes the downstream shard servers (see ShardHealth).
	Databases []DBShards `json:"databases,omitempty"`
	// Shards reports downstream shard-server health (router role only).
	Shards []ShardHealth `json:"shards,omitempty"`
}

// DBShards is the store topology of one database: one store on a cqad.
type DBShards struct {
	Name     string      `json:"name"`
	Shards   int         `json:"shards"`
	Version  uint64      `json:"version"`
	Durable  bool        `json:"durable"`
	PerShard []ShardInfo `json:"perShard"`
}

// ShardInfo is one shard's store stats.
type ShardInfo struct {
	Index             int    `json:"index"`
	Version           uint64 `json:"version"`
	Facts             int    `json:"facts"`
	WALRecords        uint64 `json:"walRecords"`
	SegmentRecords    uint64 `json:"segmentRecords"`
	CheckpointVersion uint64 `json:"checkpointVersion"`
	Checkpoints       uint64 `json:"checkpoints"`
}

// ShardHealth is a router's view of one downstream shard server.
type ShardHealth struct {
	Index   int    `json:"index"`
	Primary string `json:"primary"`
	// Alive reports whether the primary answered the last health probe.
	Alive bool   `json:"alive"`
	Error string `json:"error,omitempty"`
}

// FactsResponse is the GET /v1/db/facts payload: a database's facts in
// the cqa database syntax, plus every relation signature (the syntax
// cannot express relations that are empty on this shard server), at one
// version. The router merges these to evaluate cross-shard joins. A
// cqad exports its whole store: Shard is -1 and Shards 1.
type FactsResponse struct {
	Database  string   `json:"database"`
	Shard     int      `json:"shard"`
	Shards    int      `json:"shards"`
	Version   uint64   `json:"version"`
	Relations []RelSig `json:"relations"`
	Facts     string   `json:"facts"`
}

// ErrorBody is the structured error envelope every non-2xx response
// carries: {"error": {"status": 400, "code": "bad_json", "message": ...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail describes one request failure. TraceID, when present,
// joins the error with the trace recorded for the request (the same ID
// the X-CQA-Trace response header carries) — set on admission rejections
// and panic-isolation responses so structured errors are joinable with
// /debug/traces.
type ErrorDetail struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"traceId,omitempty"`
}

// StatsResponse is the GET /v1/stats payload. Scope names the tier that
// produced it: "primary" or "router". A router's response
// additionally aggregates every downstream shard server under Shards.
type StatsResponse struct {
	Scope         string            `json:"scope"`
	UptimeSeconds float64           `json:"uptimeSeconds"`
	Engine        EngineStats       `json:"engine"`
	Server        map[string]any    `json:"server"`
	Shards        []ShardStatsEntry `json:"shards,omitempty"`
}

// ShardStatsEntry is a router's view of one downstream shard server's
// /v1/stats. Stats is nil (and Error set) when the shard did not
// answer.
type ShardStatsEntry struct {
	Index int            `json:"index"`
	URL   string         `json:"url"`
	Stats *StatsResponse `json:"stats,omitempty"`
	Error string         `json:"error,omitempty"`
}

// EngineStats mirrors engine.Stats in JSON form, with derived hit
// ratios for the plan cache and the versioned result cache.
type EngineStats struct {
	CacheHits           uint64  `json:"cacheHits"`
	CacheMisses         uint64  `json:"cacheMisses"`
	CacheEvictions      uint64  `json:"cacheEvictions"`
	CachedPlans         int     `json:"cachedPlans"`
	CacheHitRate        float64 `json:"cacheHitRate"`
	ResultHits          uint64  `json:"resultHits"`
	ResultMisses        uint64  `json:"resultMisses"`
	ResultInvalidations uint64  `json:"resultInvalidations"`
	ResultCarried       uint64  `json:"resultCarried"`
	CachedResults       int     `json:"cachedResults"`
	ResultHitRate       float64 `json:"resultHitRate"`
}

// decodeJSON strictly decodes one JSON value from r into v: unknown
// fields, trailing garbage, and oversized bodies are errors. The caller
// wraps r in http.MaxBytesReader, so an *http.MaxBytesError surfaces
// through the returned error for the 413 mapping.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Reject a second JSON value (or any trailing non-space bytes).
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// decodeRequest decodes a whole request body into v, whose string and
// boolean fields members lists: by decodeFlat when the body is in the
// canonical form for them, else by decodeJSON.
func decodeRequest(body []byte, v any, members []member) error {
	if decodeFlat(body, members) {
		return nil
	}
	return decodeJSON(bytes.NewReader(body), v)
}

// ParseCertainRequest decodes and shape-checks a /v1/certain body. It is
// exported (within the package tree) for the fuzz target: it must never
// panic, whatever the bytes.
func ParseCertainRequest(body []byte) (CertainRequest, error) {
	var req CertainRequest
	if err := decodeRequest(body, &req, req.members()); err != nil {
		return CertainRequest{}, err
	}
	if err := req.check(); err != nil {
		return CertainRequest{}, err
	}
	return req, nil
}

// check is the shape check of a decoded /v1/certain request.
func (r *CertainRequest) check() error {
	if r.Query == "" {
		return fmt.Errorf("missing query")
	}
	if (r.Facts == "") == (r.Database == "") {
		return fmt.Errorf("exactly one of facts and database must be set")
	}
	return nil
}
