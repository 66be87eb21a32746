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
	// StrategyCompiled evaluates a compiled FO rewriting in which no
	// quantifier lowered to the bitmap form: every quantifier loops over
	// its candidates one at a time (docs/EVAL.md).
	StrategyCompiled = "compiled"
	// StrategyCompiledBitmap evaluates a compiled rewriting in which at
	// least one quantifier lowered to word-parallel sweeps over IDSet
	// membership words (docs/EVAL.md).
	StrategyCompiledBitmap = "compiled-bitmap"
	// StrategyTreeWalk interprets the rewriting with fo.Eval — selected
	// by Options.ForceTreeWalk.
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
// pipelines); ForceTreeWalk → tree walker; otherwise the compiled
// program, labelled compiled-bitmap when at least one of its quantifiers
// lowered to the bitmap form.
func (e *Engine) Strategy(p *core.Prepared) string {
	if !p.InFO() {
		if e.opt.ForceTreeWalk {
			return StrategyNaive
		}
		return p.PlanStrategy()
	}
	if e.opt.ForceTreeWalk {
		return StrategyTreeWalk
	}
	if p.Program().VecQuants() > 0 {
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
