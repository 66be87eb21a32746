package core

import (
	"sync"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/naive"
	"cqa/internal/planner"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
)

// maxBoundCache bounds the per-shape cache of compiled programs linked
// against interned databases. Serving workloads hit a handful of
// database versions per shape; the cache is evicted arbitrarily beyond
// that. Every query of the shape shares an entry: parameter values are
// bound per call, not per Bound.
const maxBoundCache = 16

// Shape is the query work of one query shape (schema.Query.Shape), done
// once and shared by every query of the shape: the classification
// (attack graph, verdict), the consistent first-order rewriting, and its
// compiled form (slot-based environments, interned constants,
// index-driven quantifier restriction; see docs/EVAL.md). The shape's
// constants are parameters, frozen as RewriteFree freezes free
// variables, so internal/attack sees constants where the query has them:
// nothing in the classification or the rewriting depends on what a
// constant is, only on where constants sit and which are equal. The
// query work is exponential in the query size in the worst case (the
// rewriting can be exponentially large) although polynomial per
// database, which is why serving workloads prepare once per shape and
// bind each request's values (Instance).
type Shape struct {
	// cls classifies the shape with its parameters frozen; its
	// rewriting has the parameters free.
	cls    *Classification
	params []string
	// prog is the compiled rewriting (FO verdicts only).
	prog *fo.Program
	// plan is the planner's strategy selection; for non-FO shapes it
	// carries the polynomial graph decider Certain dispatches to.
	plan *planner.Plan

	// bounds caches the program linked against interned databases, so a
	// hot (shape, database-version) pair pays for constant resolution
	// and candidate materialization once. decisions caches the planner's
	// recorded decision the same way (explain output asks per request).
	mu        sync.Mutex
	bounds    map[*db.Interned]*fo.Bound
	decisions map[*db.Interned]*planner.Decision
}

// Prepared is one query on its shape's plan: the Shape and the query's
// parameter values. Its evaluation entry points, Certain and
// CertainScratch, bind the values into the shape's shared program; what
// depends on the shape alone (the planner's Decision, the strategy, the
// rewriting's size) it inherits. Cheap to make (Shape.Instance);
// read-only.
type Prepared struct {
	*Shape
	q    schema.Query
	vals []string
}

// Prepare validates, classifies, and — when CERTAINTY(q) is in FO —
// compiles the rewriting of q's shape, and returns q on it.
func Prepare(q schema.Query) (*Prepared, error) {
	s, err := PrepareShape(q)
	if err != nil {
		return nil, err
	}
	_, vals := q.Shape()
	return s.Instance(q, vals), nil
}

// PrepareShape prepares the shape of q: the result serves every query
// whose shape key equals q's.
func PrepareShape(q schema.Query) (*Shape, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	shape, params, _, _ := q.Lift()
	cls, err := Classify(rewrite.Freeze(shape, params))
	if err != nil {
		return nil, err
	}
	s := &Shape{cls: cls, params: params, plan: planner.New(cls.Query, cls.Verdict == VerdictFO)}
	if cls.Verdict == VerdictFO {
		// A positive atom's constants must occur in their columns for any
		// repair to satisfy q at all; in the shape they are parameters.
		isParam := make(map[string]bool, len(params))
		for _, x := range params {
			isParam[x] = true
		}
		var needs []fo.Need
		for _, a := range shape.Positive() {
			for col, t := range a.Terms {
				if isParam[t.Name] {
					needs = append(needs, fo.Need{Rel: a.Rel, Col: col, Term: t})
				}
			}
		}
		if s.prog, err = fo.Compile(cls.Rewriting, params, needs...); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Instance returns q, a query of this shape whose parameter values in
// slot order are vals (schema.Query.Shape), on the shape's plan.
func (s *Shape) Instance(q schema.Query, vals []string) *Prepared {
	return &Prepared{Shape: s, q: q, vals: vals}
}

// Query returns the query as its caller wrote it.
func (p *Prepared) Query() schema.Query { return p.q }

// Classification returns the analysis of the query, in its own words:
// the query itself, and the shape's rewriting with the query's variable
// names and constants put back.
func (p *Prepared) Classification() *Classification {
	c := *p.cls
	c.Query = p.q
	if c.Rewriting != nil {
		_, _, vars, _ := p.q.Lift()
		ren := make(map[string]schema.Term, len(vars)+len(p.vals))
		for i, v := range vars {
			ren[schema.ShapeVar(i)] = schema.Var(v)
		}
		for i, v := range p.vals {
			ren[p.params[i]] = schema.Const(v)
		}
		c.Rewriting = fo.Rename(c.Rewriting, ren)
	}
	return &c
}

// Verdict returns the FO-membership classification of the shape.
func (s *Shape) Verdict() Verdict { return s.cls.Verdict }

// InFO reports whether CERTAINTY(q) is in FO (a rewriting is available).
func (s *Shape) InFO() bool { return s.cls.Verdict == VerdictFO }

// Program returns the compiled rewriting, or nil when the query is not
// in FO. Read-only; used by explain output for plan summaries.
func (s *Shape) Program() *fo.Program { return s.prog }

// PlanSummary describes the compiled rewriting's quantifier plans with
// the query's constants (fo.Program.PlanSummary); nil when the query is
// not in FO.
func (p *Prepared) PlanSummary() []string {
	if !p.InFO() {
		return nil
	}
	return p.prog.PlanSummary(p.vals...)
}

// RewritingSize returns the node count of the consistent first-order
// rewriting, or 0 when the query is not in FO.
func (s *Shape) RewritingSize() int {
	if !s.InFO() {
		return 0
	}
	return fo.Size(s.cls.Rewriting)
}

// bound returns the compiled rewriting linked against d's interned view,
// consulting the per-shape cache first. FO queries only.
func (s *Shape) bound(d *db.Database) *fo.Bound {
	ix := d.Interned()
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bounds[ix]; ok {
		return b
	}
	b := s.prog.Bind(ix)
	if s.bounds == nil {
		s.bounds = make(map[*db.Interned]*fo.Bound)
	}
	if len(s.bounds) >= maxBoundCache {
		for k := range s.bounds {
			delete(s.bounds, k)
			break
		}
	}
	s.bounds[ix] = b
	return b
}

// Plan returns the planner's strategy selection for the query.
func (s *Shape) Plan() *planner.Plan { return s.plan }

// PlanStrategy returns the evaluation-strategy label of the planner's
// plan for non-FO queries ("matching", "reachability", "repair-search").
// It is "" for FO queries, whose strategy the engine names from the
// compiled program (compiled-bitmap or compiled).
func (s *Shape) PlanStrategy() string { return s.plan.Strategy }

// Decision returns the planner's recorded decision for d's current
// snapshot — strategy, reason, and the relation statistics consulted —
// consulting the per-shape cache first. The decision reads relation
// statistics only, so every query of the shape shares it.
func (s *Shape) Decision(d *db.Database) *planner.Decision {
	ix := d.Interned()
	s.mu.Lock()
	defer s.mu.Unlock()
	if dec, ok := s.decisions[ix]; ok {
		return dec
	}
	dec := s.plan.Decide(ix)
	if s.decisions == nil {
		s.decisions = make(map[*db.Interned]*planner.Decision)
	}
	if len(s.decisions) >= maxBoundCache {
		for k := range s.decisions {
			delete(s.decisions, k)
			break
		}
	}
	s.decisions[ix] = dec
	return dec
}

// Certain answers CERTAINTY(q) on d: via the compiled rewriting —
// bitmap-vectorized wherever a quantifier lowered (docs/EVAL.md) — with
// the query's values bound when the query is in FO, via the planner's
// polynomial graph decider when one matches the (cyclic) query shape,
// by search over the block choices of the query otherwise.
func (p *Prepared) Certain(d *db.Database) bool {
	if p.InFO() {
		return p.bound(d).Eval(p.vals...)
	}
	return p.certainNonFO(d)
}

// CertainScratch answers like Certain on a database built for this one
// question (the few-fact sub-databases of delta.Carry): the program is
// bound to d with the query's values for this call only, so nothing is
// left in the bound and decision caches, whose entries belong to the
// served snapshots.
func (p *Prepared) CertainScratch(d *db.Database) bool {
	if p.InFO() {
		return p.prog.Bind(d.Interned(), p.vals...).Eval(p.vals...)
	}
	return p.certainNonFO(d)
}

// certainNonFO dispatches a non-FO query to the planner's decider when
// one exists, else to the satisfiability search over the block choices
// of the query (naive.RepairSearch); both read d's interned view.
func (p *Prepared) certainNonFO(d *db.Database) bool {
	ix := d.Interned()
	if certain, ok := p.plan.Certain(ix); ok {
		return certain
	}
	return naive.RepairSearch(p.q, ix)
}
