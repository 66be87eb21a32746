// Package engine is the concurrent serving layer on top of core. A read
// is one call pair: Plan does the query work once per query shape —
// classification, consistent first-order rewriting and its compiled
// program, memoized by core.PrepareShape in a thread-safe LRU plan cache
// keyed by schema.Query.Shape, so queries that differ only in their
// constants share one plan and each binds its own values — and Answer
// does the data work on one snapshot (a store's, or an inline database
// at version 0), behind the table of maintained verdicts (delta.Manager)
// when the read names a database.
// ApplyChange is the one write-side call: it moves that table, watched
// entries included, across the write. CertainBatch answers many
// independent checks through the same pair, once per distinct (query
// signature, snapshot). Rewritings evaluate through the one compiled
// program (interned constants, slot-based environments, index-driven
// quantifier restriction, bitmap sweeps wherever a quantifier lowers —
// docs/EVAL.md), non-FO queries through the planner's deciders and then
// search over block choices: one production path per job. See docs/ENGINE.md for the architecture.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/delta"
	"cqa/internal/schema"
	"cqa/internal/store"
)

// ErrClosed is returned by engine methods after Close.
var ErrClosed = errors.New("engine: closed")

// Options has no fields: the engine's capacities are the constants
// below. It stays as New's parameter for New's existing callers.
type Options struct{}

// DefaultCacheSize is the plan-cache capacity: the number of cached
// plans.
const DefaultCacheSize = 256

// DefaultResultCacheSize is the capacity of the table of maintained
// verdicts (delta.Manager): the verdicts Answer keeps per query
// signature and named, versioned database, watched or not.
const DefaultResultCacheSize = delta.DefaultCapacity

// Engine answers CERTAINTY(q) for serving workloads: plans are prepared
// once per query shape and reused by every read of that shape. An
// Engine is safe for concurrent use by multiple goroutines.
type Engine struct {
	cache *planCache

	// delta is the table of maintained verdicts: the result cache of
	// Answer and the subscriptions of RegisterWatch (watch.go).
	delta *delta.Manager

	// Lifecycle: begin/end bracket every public operation so Close can
	// refuse new work and wait for in-flight work to drain.
	closeMu  sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// New returns an engine.
func New(Options) *Engine {
	return &Engine{
		cache: newPlanCache(DefaultCacheSize),
		delta: delta.New(delta.Options{}),
	}
}

// begin registers one in-flight operation; it fails once Close has run.
// The closed check and the WaitGroup Add happen under one lock so Close
// cannot observe an empty WaitGroup while an operation is about to start.
func (e *Engine) begin() error {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.inflight.Add(1)
	return nil
}

func (e *Engine) end() { e.inflight.Done() }

// Close stops the engine: subsequent Prepare/Certain/CertainBatch calls
// fail with ErrClosed, and Close blocks until every in-flight call —
// a whole batch included — has returned. Close is idempotent and
// safe to call concurrently; every call waits for the drain. The plan
// cache is left intact so Stats remains meaningful after shutdown.
func (e *Engine) Close() {
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()
	e.inflight.Wait()
	e.delta.Close()
}

// Prepare returns q on its shape's plan, consulting the LRU cache first.
// Queries of one shape (identical up to literal order, variable renaming
// and an injective renaming of constants) share the plan and bind their
// own values; the Classification of the result speaks of q itself — its
// query, and the rewriting in q's variable names and constants — never
// of the query that first prepared the shape. Preparation errors are not
// cached.
func (e *Engine) Prepare(q schema.Query) (*core.Prepared, error) {
	r, err := e.Plan(q)
	return r.Prepared, err
}

// Read is a query planned for answering: the query work of CERTAINTY(q)
// — classification, rewriting and its compiled program — done once per
// shape and shared by every read of that shape, and the read's own
// parameter values, which Prepared carries into every evaluation.
type Read struct {
	Query schema.Query
	// Sig is Query's canonical signature, the key of the table of
	// maintained verdicts; unlike the plan cache's shape key it keeps
	// the constants.
	Sig      string
	Prepared *core.Prepared
	// Hit reports that the shape's plan came from the plan cache.
	Hit bool
}

// Plan computes q's shape, parameter values and signature in one
// canonicalising walk and looks the shape's plan up in the cache,
// preparing it on a miss (see Prepare).
func (e *Engine) Plan(q schema.Query) (Read, error) {
	if err := e.begin(); err != nil {
		return Read{}, err
	}
	defer e.end()
	return e.plan(q)
}

// plan is Plan for a caller that has begun an operation already: a
// nested begin would fail once Close starts, cutting short the work
// Close waits for.
func (e *Engine) plan(q schema.Query) (Read, error) {
	key, sig, vals := q.Canonical()
	s, hit, err := e.cache.getOrPrepare(key, q)
	if err != nil {
		return Read{Query: q}, err
	}
	return Read{Query: q, Sig: sig, Prepared: s.Instance(q, vals), Hit: hit}, nil
}

// Certain answers CERTAINTY(q) on d using a cached plan: Plan, then
// Answer on d.
func (e *Engine) Certain(q schema.Query, d *db.Database) (bool, error) {
	r, err := e.Plan(q)
	if err != nil {
		return false, err
	}
	certain, _, err := e.Answer(r, "", store.Snapshot{DB: d})
	return certain, err
}

// Result-cache outcomes reported by Answer, as carried in the cache
// metric label.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
	// CacheBypass: the read named no database, so there was no result to
	// key on (inline facts, a router's gathered facts).
	CacheBypass = "bypass"
)

// Answer is the data half of CERTAINTY(q): it evaluates the planned read
// r on snap and reports the verdict and the result-cache outcome. With a
// dbID the table of maintained verdicts is consulted first under r.Sig:
// repeated checks at an unchanged version — or at a version the entry
// was carried or re-evaluated to (see ApplyChange) — skip evaluation
// entirely. dbID must name the database stably across versions, and its
// writes must be reported through ApplyChange. An inline database is
// read with no dbID.
func (e *Engine) Answer(r Read, dbID string, snap store.Snapshot) (certain bool, cache string, err error) {
	if err := e.begin(); err != nil {
		return false, "", err
	}
	defer e.end()
	certain, cache = e.answer(r, dbID, snap)
	return certain, cache, nil
}

// answer is Answer for a caller that has begun an operation already
// (see plan).
func (e *Engine) answer(r Read, dbID string, snap store.Snapshot) (certain bool, cache string) {
	if dbID == "" {
		return r.Prepared.Certain(snap.DB), CacheBypass
	}
	certain, hit := e.delta.Get(dbID, r.Sig, r.Prepared, snap, func() bool { return r.Prepared.Certain(snap.DB) })
	if hit {
		return certain, CacheHit
	}
	return certain, CacheMiss
}

// ApplyChange reports that the write c moved dbID to the snapshot cur
// (cur.Version == c.Version) from the one the table saw last, and runs
// one decision per maintained verdict of dbID on the caller's goroutine
// (delta.Advance): verdicts of queries mentioning no written relation
// advance to the new version, those of co-keyed queries are carried
// across by re-checking c.Blocks alone, and the rest are dropped — or,
// when watched, re-evaluated on cur. Flips reach the watches before
// ApplyChange returns. Calls must arrive in version order per database;
// they are made under the store's writer lock.
func (e *Engine) ApplyChange(dbID string, c store.Change, cur store.Snapshot) {
	e.delta.Advance(dbID, c, cur)
}

// Item is one independent CERTAINTY check of a batch.
type Item struct {
	Query schema.Query
	DB    *db.Database
}

// Result is the outcome of one batch item. Exactly one of Certain being
// meaningful or Err being non-nil holds; items skipped because the
// context was cancelled carry the context error.
type Result struct {
	Certain bool
	Err     error
}

// CertainBatch answers each item's check through the read path and
// returns one result per item, in order. Items sharing a canonical query
// signature and a database form one group, answered once — Plan, then
// Answer on DB — when its first item comes up, and its result is copied
// to every later member, so a batch with duplicated hot checks pays for
// each distinct check once. Groups run one after another on the
// caller's goroutine; errors — including panics from malformed inputs —
// are isolated per group. Once ctx is done, every
// group not yet started carries context.Cause(ctx). No endpoint or CLI
// path calls it; its one caller outside tests is the in-process probe
// (bench/layers).
func (e *Engine) CertainBatch(ctx context.Context, items []Item) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(items))
	if err := e.begin(); err != nil {
		for i := range results {
			results[i] = Result{Err: err}
		}
		return results
	}
	defer e.end()
	type group struct {
		sig string
		db  *db.Database
	}
	first := make(map[group]int)
	for i, it := range items {
		g := group{it.Query.Signature(), it.DB}
		if j, ok := first[g]; ok {
			results[i] = results[j]
			continue
		}
		first[g] = i
		if err := context.Cause(ctx); err != nil {
			results[i] = Result{Err: err}
		} else {
			results[i] = e.answerItem(it)
		}
	}
	return results
}

// answerItem answers one batch item, converting panics (e.g. from
// malformed formulas or databases) into its error so one bad item cannot
// take down the batch.
func (e *Engine) answerItem(it Item) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("engine: item panicked: %v", r)}
		}
	}()
	r, err := e.plan(it.Query)
	if err != nil {
		return Result{Err: err}
	}
	certain, _ := e.answer(r, "", store.Snapshot{DB: it.DB})
	return Result{Certain: certain}
}
