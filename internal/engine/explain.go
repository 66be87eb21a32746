package engine

import (
	"cqa/internal/core"
	"cqa/internal/planner"
)

// This file is the introspection surface behind explain output and the
// strategy metric label: it names, without evaluating anything, the
// evaluation strategy core.Prepared.Certain will take (Answer reports
// the result-cache outcome it took). The names feed
// the `eval_total{strategy=…}` metric and the `"explain": true`
// response, and are the observable hooks the ROADMAP's meta-engine
// strategy selector will build on.

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
	// The non-FO strategies are named by the planner, which selects them
	// per query shape (docs/PLANNER.md): Hopcroft–Karp bipartite matching
	// for the mutual-negation pattern, union-find reachability for the
	// all-key edge pattern, and search over block choices for the rest.
	StrategyMatching     = planner.StrategyMatching
	StrategyReachability = planner.StrategyReachability
	StrategySearch       = planner.StrategySearch
)

// Strategies lists every name Strategy returns.
var Strategies = []string{StrategyCompiled, StrategyCompiledBitmap, StrategyMatching, StrategyReachability, StrategySearch}

// Strategy reports the evaluation strategy core.Prepared.Certain takes
// for p: not in FO → the planner's verdict (a polynomial graph decider
// when the query shape has one, search over block choices otherwise);
// otherwise the compiled program, labelled compiled-bitmap when at least
// one of its quantifiers lowered to the bitmap form.
func Strategy(p *core.Prepared) string {
	if !p.InFO() {
		return p.PlanStrategy()
	}
	if p.Program().VecQuants() > 0 {
		return StrategyCompiledBitmap
	}
	return StrategyCompiled
}
