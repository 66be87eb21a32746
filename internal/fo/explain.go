package fo

import (
	"fmt"
	"strings"
)

// This file provides the introspection surface behind the server's
// `"explain": true` option: a human-readable summary of the compile-time
// quantifier-restriction plans (the rewriting size is Size). Nothing
// here runs on the evaluation hot path.

// PlanSummary describes every quantifier's candidate-restriction plan,
// one line per binder in compile order: "s0 ∈ R.1", "s1 ∈ min(R.0,
// S.1)", "s2 ∈ domain". Binders and candidate plans are allocated in
// lockstep by compileExists, so entry i is slot i's plan. A binder that
// walks a block names it: "s3 ∈ Born.1 (block Born[s0])". A parameter
// is shown as its value in vals, or by name when vals is empty.
func (p *Program) PlanSummary(vals ...string) []string {
	out := make([]string, len(p.cands))
	for i, plan := range p.cands {
		out[i] = fmt.Sprintf("s%d ∈ %s", i, p.describe(plan, vals))
		if d := p.blocks[i]; d != nil {
			key := make([]string, d.atom.key)
			for j, t := range d.atom.terms[:d.atom.key] {
				key[j] = p.describeTerm(t, vals)
			}
			out[i] += fmt.Sprintf(" (block %s[%s])", p.rels[d.atom.rel], strings.Join(key, ", "))
		}
	}
	return out
}

// describeTerm names a slot "sN" and a constant or parameter as describe
// does.
func (p *Program) describeTerm(t termRef, vals []string) string {
	if t >= 0 {
		return fmt.Sprintf("s%d", t)
	}
	return p.describe(candConst{c: int(^t)}, vals)
}

func (p *Program) describe(plan candPlan, vals []string) string {
	switch c := plan.(type) {
	case candDomain:
		return "domain"
	case candCol:
		return fmt.Sprintf("%s.%d", p.rels[c.rel], c.col)
	case candConst:
		if c.c < len(vals) {
			return fmt.Sprintf("%q", vals[c.c])
		}
		return fmt.Sprintf("%q", p.consts[c.c])
	case candPick:
		return "min(" + p.describeAll(c.of, vals) + ")"
	case candUnion:
		return "union(" + p.describeAll(c.of, vals) + ")"
	default:
		return fmt.Sprintf("%T", plan)
	}
}

func (p *Program) describeAll(plans []candPlan, vals []string) string {
	parts := make([]string, len(plans))
	for i, sub := range plans {
		parts[i] = p.describe(sub, vals)
	}
	return strings.Join(parts, ", ")
}
