package core

import (
	"sync"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/naive"
	"cqa/internal/planner"
	"cqa/internal/schema"
)

// maxBoundCache bounds the per-plan cache of compiled programs linked
// against interned databases. Serving workloads hit a handful of
// databases per query; the cache is evicted arbitrarily beyond that.
const maxBoundCache = 16

// Prepared is a query analysed once and evaluated many times: the
// classification (attack graph, verdict), the consistent first-order
// rewriting, and the compiled form of that rewriting (slot-based
// environments, interned constants, index-driven quantifier restriction;
// see docs/EVAL.md) are computed by Prepare and reused by every Certain
// call. This is the intended API for serving workloads — Classify+Certain
// per request would redo the query-complexity work, which is exponential
// in the query size in the worst case (the rewriting can be exponentially
// large) although polynomial per database.
type Prepared struct {
	cls *Classification
	// prog is the compiled rewriting (FO verdicts only).
	prog *fo.Program
	// plan is the planner's strategy selection; for non-FO queries it
	// carries the polynomial graph decider Certain dispatches to.
	plan *planner.Plan

	// bounds caches the program linked against interned databases, so a
	// hot (query, database-version) pair pays for constant resolution and
	// candidate materialization once. decisions caches the planner's
	// recorded decision the same way (explain output asks per request).
	mu        sync.Mutex
	bounds    map[*db.Interned]*fo.Bound
	decisions map[*db.Interned]*planner.Decision
}

// Prepare validates, classifies, and — when CERTAINTY(q) is in FO —
// compiles the rewriting.
func Prepare(q schema.Query) (*Prepared, error) {
	cls, err := Classify(q)
	if err != nil {
		return nil, err
	}
	p := &Prepared{cls: cls, plan: planner.New(q, cls.Verdict == VerdictFO)}
	if cls.Verdict == VerdictFO {
		// A positive atom's constants must occur in their columns for any
		// repair to satisfy q at all.
		var needs []fo.Need
		for _, a := range q.Positive() {
			for col, t := range a.Terms {
				if !t.IsVar {
					needs = append(needs, fo.Need{Rel: a.Rel, Col: col, Const: t.Name})
				}
			}
		}
		if p.prog, err = fo.Compile(cls.Rewriting, needs...); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Classification exposes the analysis result.
func (p *Prepared) Classification() *Classification { return p.cls }

// InFO reports whether CERTAINTY(q) is in FO (a rewriting is available).
func (p *Prepared) InFO() bool { return p.cls.Verdict == VerdictFO }

// Program returns the compiled rewriting, or nil when the query is not
// in FO. Read-only; used by explain output for plan summaries.
func (p *Prepared) Program() *fo.Program { return p.prog }

// RewritingSize returns the node count of the consistent first-order
// rewriting, or 0 when the query is not in FO.
func (p *Prepared) RewritingSize() int {
	if !p.InFO() {
		return 0
	}
	return fo.NodeCount(p.cls.Rewriting)
}

// bound returns the compiled rewriting linked against d's interned view,
// consulting the per-plan cache first. FO queries only.
func (p *Prepared) bound(d *db.Database) *fo.Bound {
	ix := d.Interned()
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.bounds[ix]; ok {
		return b
	}
	b := p.prog.Bind(ix)
	if p.bounds == nil {
		p.bounds = make(map[*db.Interned]*fo.Bound)
	}
	if len(p.bounds) >= maxBoundCache {
		for k := range p.bounds {
			delete(p.bounds, k)
			break
		}
	}
	p.bounds[ix] = b
	return b
}

// QueryRels returns the distinct relation names the query mentions
// (positive and negated atoms), in first-occurrence order.
func (p *Prepared) QueryRels() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range p.cls.Query.Atoms() {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

// CertainSupport answers CERTAINTY(q) on d while recording the support
// set of the evaluation (the blocks every membership probe touched; see
// fo.Support). supported is false when the query is not in FO, in which
// case the verdict is computed by Certain's normal dispatch and sup is
// nil: the delta layer then degrades to relation-level re-evaluation.
func (p *Prepared) CertainSupport(d *db.Database) (verdict bool, sup *fo.Support, supported bool) {
	if p.InFO() {
		verdict, sup = p.bound(d).EvalSupport()
		return verdict, sup, true
	}
	return p.Certain(d), nil, false
}

// Plan returns the planner's strategy selection for the query.
func (p *Prepared) Plan() *planner.Plan { return p.plan }

// PlanStrategy returns the evaluation-strategy label of the planner's
// plan for non-FO queries ("matching", "reachability", "naive-repair").
// It is "" for FO queries, whose strategy the engine names (the choice
// between compiled and tree-walk evaluation is an engine option).
func (p *Prepared) PlanStrategy() string { return p.plan.Strategy }

// Decision returns the planner's recorded decision for d's current
// snapshot — strategy, reason, and the relation statistics consulted —
// consulting the per-plan cache first.
func (p *Prepared) Decision(d *db.Database) *planner.Decision {
	ix := d.Interned()
	p.mu.Lock()
	defer p.mu.Unlock()
	if dec, ok := p.decisions[ix]; ok {
		return dec
	}
	dec := p.plan.Decide(ix)
	if p.decisions == nil {
		p.decisions = make(map[*db.Interned]*planner.Decision)
	}
	if len(p.decisions) >= maxBoundCache {
		for k := range p.decisions {
			delete(p.decisions, k)
			break
		}
	}
	p.decisions[ix] = dec
	return dec
}

// Certain answers CERTAINTY(q) on d: via the compiled rewriting —
// bitmap-vectorized wherever a quantifier lowered (docs/EVAL.md) — when
// the query is in FO, via the planner's polynomial graph decider when
// one matches the (cyclic) query shape, by repair enumeration otherwise.
func (p *Prepared) Certain(d *db.Database) bool {
	if p.InFO() {
		return p.bound(d).Eval()
	}
	return p.certainNonFO(d)
}

// CertainScratch answers like Certain on a database built for this one
// question (the few-fact sub-databases of delta.Carry): the rewriting is
// walked as is, since interning and binding a database nobody will ask
// again costs more than the walk, and nothing is left in the bound and
// decision caches, whose entries belong to the served snapshots.
func (p *Prepared) CertainScratch(d *db.Database) bool {
	if p.InFO() {
		return evalOn(d, p.cls.Query, p.cls.Rewriting)
	}
	return p.certainNonFO(d)
}

// certainNonFO dispatches a non-FO query to the planner's decider when
// one exists, else to repair enumeration.
func (p *Prepared) certainNonFO(d *db.Database) bool {
	if certain, ok := p.plan.Certain(d.Interned()); ok {
		return certain
	}
	return naive.IsCertain(p.cls.Query, d)
}

// CertainTreeWalk answers like Certain but evaluates the rewriting with
// the interpreting tree walker (fo.Eval) instead of the compiled program,
// and non-FO queries with repair enumeration instead of the planner's
// graph deciders. It exists as the reference oracle for differential
// tests and as the operational rollback switch for both the compiled
// pipeline and the planner (engine.Options.ForceTreeWalk).
func (p *Prepared) CertainTreeWalk(d *db.Database) bool {
	if p.InFO() {
		return evalOn(d, p.cls.Query, p.cls.Rewriting)
	}
	return naive.IsCertain(p.cls.Query, d)
}
