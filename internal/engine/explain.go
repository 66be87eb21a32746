package engine

import (
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/planner"
	"cqa/internal/schema"
	"cqa/internal/shard"
)

// This file is the introspection surface behind explain output and the
// strategy/cache metric labels: it names, without evaluating anything,
// the evaluation strategy certainWith will take and the shard plan
// certainSharded will take. The names feed the `eval_total{strategy=…}`
// metric and the `"explain": true` response, and are the observable
// hooks the ROADMAP's meta-engine strategy selector will build on.

// Evaluation strategy names, as reported by Strategy and carried in the
// strategy metric label.
const (
	// StrategyCompiled evaluates the compiled FO rewriting on the scalar
	// per-candidate tree (docs/EVAL.md).
	StrategyCompiled = "compiled"
	// StrategyCompiledBitmap evaluates the compiled rewriting on the
	// bitmap-vectorized tree — word-parallel quantifier sweeps over
	// IDSet membership words (docs/EVAL.md). Default for programs with
	// vectorizable quantifiers; Options.DisableBitmap rolls back to
	// StrategyCompiled.
	StrategyCompiledBitmap = "compiled-bitmap"
	// StrategyTreeWalk interprets the rewriting with fo.Eval — selected
	// by Options.ForceTreeWalk or when no compiled program is available.
	StrategyTreeWalk = "tree-walk"
	// The non-FO strategies are named by the planner, which selects them
	// per query shape (docs/PLANNER.md): Hopcroft–Karp bipartite matching
	// for the mutual-negation pattern, union-find reachability for the
	// all-key edge pattern, and repair enumeration as the last resort.
	StrategyMatching     = planner.StrategyMatching
	StrategyReachability = planner.StrategyReachability
	StrategyNaive        = planner.StrategyNaive
)

// Strategy reports the evaluation strategy certainWith takes for p under
// this engine's options. The mapping mirrors certainWith exactly: not
// in FO → the planner's verdict (a polynomial graph decider when the
// query shape has one, repair enumeration otherwise — ForceTreeWalk
// disables the deciders too, it is the rollback switch for both
// pipelines); ForceTreeWalk or a missing compiled program → tree walker;
// otherwise the compiled pipeline, bitmap-vectorized unless DisableBitmap
// is set or the program has no vectorizable quantifier.
func (e *Engine) Strategy(p *core.Prepared) string {
	if !p.InFO() {
		if e.opt.ForceTreeWalk {
			return StrategyNaive
		}
		return p.PlanStrategy()
	}
	if e.opt.ForceTreeWalk || !p.HasCompiled() {
		return StrategyTreeWalk
	}
	if !e.opt.DisableBitmap && p.HasBitmap() {
		return StrategyCompiledBitmap
	}
	return StrategyCompiled
}

// Options returns a copy of the engine's configuration (for explain
// verification and operator tooling).
func (e *Engine) Options() Options { return e.opt }

// CertainWith evaluates a prepared plan on d honouring the engine's
// options — the same dispatch Certain takes after preparation. Servers
// that already hold p (from PrepareCached, for explain output) use this
// so the strategy explain reports is the strategy actually executed.
func (e *Engine) CertainWith(p *core.Prepared, d *db.Database) (bool, error) {
	if err := e.begin(); err != nil {
		return false, err
	}
	defer e.end()
	return e.certainWith(p, d), nil
}

// PrepareCached is Prepare plus the plan-cache outcome: hit reports
// whether the plan came from the cache. Explain and the cache-outcome
// metric label need the distinction; Prepare alone hides it.
func (e *Engine) PrepareCached(q schema.Query) (p *core.Prepared, hit bool, err error) {
	if err := e.begin(); err != nil {
		return nil, false, err
	}
	defer e.end()
	return e.cache.getOrPrepare(q.Signature(), q)
}

// Shard plan names, as reported by ShardPlanFor (shard.Plan kinds).
const (
	ShardPlanSingle  = shard.PlanSingle
	ShardPlanScatter = shard.PlanScatter
	ShardPlanPinned  = shard.PlanPinned
	ShardPlanUnion   = shard.PlanUnion
)

// ShardPlanFor reports, without evaluating, the plan certainSharded
// executes for q on view and the shards it consults.
func ShardPlanFor(q schema.Query, view ShardView) (plan string, shards []int) {
	p := view.Plan(q)
	return p.Kind, p.Shards
}
