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
	"cqa/internal/db"
	"cqa/internal/schema"
	"cqa/internal/shard"
)

// ShardView is the engine's read interface onto one consistent
// cross-shard version: per-shard databases, a merged union, and the
// global version. *shard.View implements it.
type ShardView interface {
	NumShards() int
	Shard(i int) *db.Database
	Union() *db.Database
	Version() uint64
	// Plan is the shard-combine decision for q under the placement
	// that wrote this view.
	Plan(q schema.Query) shard.Plan
}

// CertainSharded evaluates CERTAINTY(q) on a sharded view, without the
// result cache.
func (e *Engine) CertainSharded(q schema.Query, view ShardView) (bool, error) {
	if err := e.begin(); err != nil {
		return false, err
	}
	defer e.end()
	p, err := e.prepare(q)
	if err != nil {
		return false, err
	}
	return e.certainSharded(p, q, view), nil
}

// CertainShardedVersioned is CertainSharded behind the exact-version
// result cache: the global version plays the role a single store's
// version plays in CertainVersioned, and invalidation rides the same
// ApplyWrite path (the sharded facade reports one aggregate change per
// batch, in global-version order).
func (e *Engine) CertainShardedVersioned(q schema.Query, dbID string, view ShardView) (certain, cached bool, err error) {
	if err := e.begin(); err != nil {
		return false, false, err
	}
	defer e.end()
	sig := q.Signature()
	if ans, ok := e.results.get(sig, dbID, view.Version()); ok {
		return ans, true, nil
	}
	p, err := e.prepare(q)
	if err != nil {
		return false, false, err
	}
	certain = e.certainSharded(p, q, view)
	e.results.put(sig, dbID, view.Version(), q, certain)
	return certain, false, nil
}

// shardDBs lists a view's per-shard databases.
func shardDBs(view ShardView) []*db.Database {
	out := make([]*db.Database, view.NumShards())
	for i := range out {
		out[i] = view.Shard(i)
	}
	return out
}

// certainSharded executes view's plan for q: scatter plans OR the
// verdicts of the planned shards, anything else joins across shards and
// evaluates on the union.
func (e *Engine) certainSharded(p *core.Prepared, q schema.Query, view ShardView) bool {
	plan := view.Plan(q)
	if !plan.Scatter() {
		return e.certainWith(p, view.Union())
	}
	for _, i := range plan.Shards {
		if e.certainWith(p, view.Shard(i)) {
			return true
		}
	}
	return false
}
