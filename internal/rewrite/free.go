package rewrite

import (
	"fmt"

	"cqa/internal/fo"
	"cqa/internal/schema"
)

// RewriteFree constructs a consistent first-order rewriting for a query
// with free variables. The paper (Section 1, citing [19, §3.3]) notes
// that free variables can be treated as constants; accordingly, the
// attack graph and the weak-guard condition are computed on q with the
// free variables frozen — which can change the classification: q1 =
// {R(x|y), ¬S(y|x)} has no Boolean rewriting, but with x free it does.
//
// The returned formula has exactly the free variables free; compile it
// with them as parameters (fo.Compile) and bind each candidate answer
// per call, or use core.CertainAnswers to enumerate the certain answers.
func RewriteFree(q schema.Query, free []string) (fo.Formula, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	vars := q.Vars()
	seen := make(map[string]bool, len(free))
	for _, x := range free {
		if !vars.Has(x) {
			return nil, fmt.Errorf("rewrite: free variable %s does not occur in %s", x, q)
		}
		if seen[x] {
			return nil, fmt.Errorf("rewrite: duplicate free variable %s", x)
		}
		seen[x] = true
	}
	return RewriteExt(schema.Ext(Freeze(q, free)))
}

// Freeze returns q with the variables vars turned into frozen constants:
// the attack graph, the guard conditions and the planner see them as
// constants, and Rewrite leaves them free in the rewriting. It is how
// free variables are treated as constants (RewriteFree) and how a query
// shape's parameters are (core.PrepareShape).
func Freeze(q schema.Query, vars []string) schema.Query {
	sub := make(map[string]schema.Term, len(vars))
	for _, x := range vars {
		sub[x] = freeze(x)
	}
	return q.Substitute(sub)
}
