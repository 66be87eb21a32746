package fo

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cqa/internal/db"
)

// DefaultMinParallelCandidates is the candidate-list size at which
// EvalParallel starts fanning a top-level quantifier across workers.
// Below it the per-goroutine overhead dominates and the sequential
// evaluator wins; the candidate list is derived from the database (column
// indexes or active domain), so this is effectively a database-size
// threshold.
const DefaultMinParallelCandidates = 64

// EvalParallel model-checks a sentence like Eval, but splits the
// iteration of top-level quantifiers over their candidate values across
// up to workers goroutines. Top-level here means quantifiers reachable
// from the root through ∧, ∨, and ¬ only — exactly the shape of the
// consistent first-order rewritings (∃-blocks and guarded ∀-blocks joined
// by Boolean connectives). Inner quantifiers always run sequentially.
// workers ≤ 0 selects GOMAXPROCS. The answer is identical to Eval.
func EvalParallel(d *db.Database, f Formula, workers int) bool {
	return EvalParallelOpts(d, f, workers, DefaultMinParallelCandidates)
}

// EvalParallelOpts is EvalParallel with an explicit fan-out threshold: a
// quantifier is parallelized only when its candidate list has at least
// minCandidates values (minCandidates ≤ 0 selects the default).
func EvalParallelOpts(d *db.Database, f Formula, workers, minCandidates int) bool {
	if free := FreeVars(f); !free.Empty() {
		panic(fmt.Sprintf("fo: EvalParallel on non-sentence with free variables %s", free))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if minCandidates <= 0 {
		minCandidates = DefaultMinParallelCandidates
	}
	ev := &evaluator{d: d}
	ev.domain = activeDomain(d, f)
	pe := &parEvaluator{ev: ev, workers: workers, minCandidates: minCandidates}
	return pe.eval(f)
}

// parEvaluator drives the top-level Boolean skeleton of a sentence,
// delegating quantifier fan-out to parExists. The wrapped evaluator is
// read-only and shared by all workers; every worker owns its environment.
type parEvaluator struct {
	ev            *evaluator
	workers       int
	minCandidates int
}

func (pe *parEvaluator) eval(f Formula) bool {
	switch g := f.(type) {
	case And:
		for _, sub := range g.Fs {
			if !pe.eval(sub) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range g.Fs {
			if pe.eval(sub) {
				return true
			}
		}
		return false
	case Not:
		return !pe.eval(g.F)
	case Implies:
		return !pe.eval(g.L) || pe.eval(g.R)
	case Exists:
		return pe.exists(g.Vars, g.Body)
	case Forall:
		// ∀x⃗ φ ≡ ¬∃x⃗ ¬φ, as in the sequential evaluator.
		return !pe.exists(g.Vars, Not{F: g.Body})
	default:
		return pe.ev.eval(f, make(map[string]string))
	}
}

// EvalParallel evaluates the bound program like Eval, but splits the
// candidate iteration of top-level quantifiers (those reachable from the
// root through ∧, ∨, ¬, and → only — the shape of the consistent
// first-order rewritings) across up to workers goroutines. Inner
// quantifiers run sequentially per worker. workers ≤ 0 selects
// GOMAXPROCS, minCandidates ≤ 0 selects DefaultMinParallelCandidates.
// The answer is identical to Eval.
func (b *Bound) EvalParallel(workers, minCandidates int) bool {
	if b.unmet {
		return false
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if minCandidates <= 0 {
		minCandidates = DefaultMinParallelCandidates
	}
	return b.parNode(b.p.root, workers, minCandidates)
}

func (b *Bound) parNode(n node, workers, minCandidates int) bool {
	switch g := n.(type) {
	case *nAnd:
		for _, sub := range g.fs {
			if !b.parNode(sub, workers, minCandidates) {
				return false
			}
		}
		return true
	case *nOr:
		for _, sub := range g.fs {
			if b.parNode(sub, workers, minCandidates) {
				return true
			}
		}
		return false
	case *nNot:
		return !b.parNode(g.f, workers, minCandidates)
	case *nImplies:
		return !b.parNode(g.l, workers, minCandidates) || b.parNode(g.r, workers, minCandidates)
	case *nExists:
		return b.parExists(g, workers, minCandidates)
	default:
		return b.evalNode(n)
	}
}

// evalNode evaluates one subtree on a pooled machine.
func (b *Bound) evalNode(n node) bool {
	m := b.pool.Get().(*mach)
	r := n.eval(m)
	b.pool.Put(m)
	return r
}

// parExists fans the candidate list of one compiled quantifier across
// workers; each worker owns a pooled machine and evaluates the body
// sequentially. Early exit is cooperative, exactly like the tree walker's
// parallel path.
func (b *Bound) parExists(e *nExists, workers, minCandidates int) bool {
	cands := b.cands[e.cand]
	if workers <= 1 || len(cands) < minCandidates {
		return b.evalNode(e)
	}
	var found atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := b.pool.Get().(*mach)
			defer b.pool.Put(m)
			for !found.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				m.env[e.slot] = cands[i]
				if e.body.eval(m) {
					found.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return found.Load()
}

// exists fans the candidate values of the first quantified variable
// across workers; each worker runs the sequential evaluator for the
// remaining variables and body. Early exit is cooperative: the first
// worker to find a witness flips the flag and the rest stop at their next
// candidate.
func (pe *parEvaluator) exists(vars []string, body Formula) bool {
	if len(vars) == 0 {
		return pe.eval(body)
	}
	x, rest := vars[0], vars[1:]
	cands, restricted := pe.ev.candidates(x, body, true)
	if !restricted {
		cands = pe.ev.domain
	}
	if pe.workers <= 1 || len(cands) < pe.minCandidates {
		return pe.ev.exists(vars, body, make(map[string]string))
	}
	var found atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pe.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := make(map[string]string)
			for !found.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				env[x] = cands[i]
				if pe.ev.exists(rest, body, env) {
					found.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return found.Load()
}
