// Scatter-gather certainty over sharded views.
//
// A repair picks one fact per block, independently across blocks, and a
// block-hash partition keeps blocks whole, so the repairs of the full
// database are exactly the products of per-shard repairs. Whether that
// lets per-shard verdicts OR-combine or forces a join on the merged
// union is decided in one place, shard.PlanFor; this file only executes
// the plan. See docs/SHARDING.md for the full argument.
package engine

import (
	"cqa/internal/core"
	"cqa/internal/delta"
	"cqa/internal/schema"
	"cqa/internal/shard"
)

// ShardView is the engine's read interface onto one consistent
// cross-shard version: per-shard databases, a merged union, and the
// global version. *shard.View implements it.
type ShardView interface {
	delta.View
	// Plan is the shard-combine decision for q under the placement
	// that wrote this view.
	Plan(q schema.Query) shard.Plan
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
// r on view and reports the verdict, the result-cache outcome and the
// shard plan it followed. With a dbID the table of maintained verdicts
// is consulted first under r.Sig: repeated checks at an unchanged
// version — or at a version the entry was carried or re-evaluated to
// (see ApplyChange) — skip evaluation entirely. dbID must name the
// database stably across versions, and its writes must be reported
// through ApplyChange. An inline database is shard.ViewOf with no dbID.
func (e *Engine) Answer(r Read, dbID string, view ShardView) (certain bool, cache string, plan shard.Plan, err error) {
	if err := e.begin(); err != nil {
		return false, "", shard.Plan{}, err
	}
	defer e.end()
	certain, cache, plan = e.answer(r, dbID, view)
	return certain, cache, plan, nil
}

// answer is Answer for a caller that has begun an operation already
// (see plan).
func (e *Engine) answer(r Read, dbID string, view ShardView) (certain bool, cache string, plan shard.Plan) {
	plan = view.Plan(r.Query)
	if dbID == "" {
		return certainSharded(r.Prepared, view, plan), CacheBypass, plan
	}
	certain, hit := e.delta.Get(dbID, r.Sig, r.Prepared, view, func() bool { return certainSharded(r.Prepared, view, plan) })
	if hit {
		return certain, CacheHit, plan
	}
	return certain, CacheMiss, plan
}

// certainSharded executes plan on view: scatter plans OR the verdicts
// of the planned shards, anything else joins across shards and evaluates
// on the union.
func certainSharded(p *core.Prepared, view ShardView, plan shard.Plan) bool {
	if !plan.Scatter() {
		return p.Certain(view.Union())
	}
	for _, i := range plan.Shards {
		if p.Certain(view.Shard(i)) {
			return true
		}
	}
	return false
}
