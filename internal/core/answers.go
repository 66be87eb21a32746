package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cqa/internal/db"
	"cqa/internal/schema"
)

// Answer is one certain answer: a binding of the free variables.
type Answer []string

// CertainAnswers computes the certain answers of a non-Boolean query: the
// tuples c⃗ over the active domain such that q[x⃗ ↦ c⃗] is true in every
// repair of d. Free variables are treated as constants (Section 1 of the
// paper, citing [19, §3.3]): each becomes a parameter slot of one
// prepared shape (PrepareShape), and every candidate binding is one
// instance of that shape — the compiled rewriting with the values bound
// when the frozen query is in FO, the planner's deciders and then repair
// enumeration otherwise, exactly as served reads are answered. Candidate
// values for each free variable are drawn from the database columns in
// which the variable occurs in positive atoms (certain answers cannot
// bind free variables elsewhere). Answers are returned in sorted order.
func CertainAnswers(q schema.Query, free []string, d *db.Database) ([]Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(free) == 0 {
		return nil, fmt.Errorf("core: no free variables; use Certain for Boolean queries")
	}
	vars := q.Vars()
	seen := make(map[string]bool, len(free))
	for _, x := range free {
		if !vars.Has(x) {
			return nil, fmt.Errorf("core: free variable %s does not occur in the query", x)
		}
		if seen[x] {
			return nil, fmt.Errorf("core: duplicate free variable %s", x)
		}
		seen[x] = true
	}

	// Each free variable becomes a placeholder constant that equals no
	// constant of q, so it fills a parameter slot of its own; slot[i] is
	// the slot of free[i].
	prefix := "\x00"
	for c := range q.Constants() {
		for strings.HasPrefix(c, prefix) {
			prefix += "\x00"
		}
	}
	sub := make(map[string]schema.Term, len(free))
	for i, x := range free {
		sub[x] = schema.Const(prefix + strconv.Itoa(i))
	}
	frozen := q.Substitute(sub)
	s, err := PrepareShape(frozen)
	if err != nil {
		return nil, err
	}
	_, vals := frozen.Shape()
	slot := make([]int, len(free))
	for i, x := range free {
		slot[i] = slices.Index(vals, sub[x].Name)
	}

	// Candidate pools per free variable.
	pools := make([][]string, len(free))
	for i, x := range free {
		set := make(map[string]bool)
		for _, p := range q.Positive() {
			rel := d.Relation(p.Rel)
			if rel == nil {
				continue
			}
			for pos, t := range p.Terms {
				if t.IsVar && t.Name == x {
					for _, v := range rel.ColumnValues(pos) {
						set[v] = true
					}
				}
			}
		}
		pool := make([]string, 0, len(set))
		for v := range set {
			pool = append(pool, v)
		}
		sort.Strings(pool)
		pools[i] = pool
	}

	var answers []Answer
	binding := make([]string, len(free))
	var walk func(i int)
	walk = func(i int) {
		if i == len(free) {
			for j, x := range free {
				vals[slot[j]] = binding[j]
				sub[x] = schema.Const(binding[j])
			}
			if s.Instance(q.Substitute(sub), vals).Certain(d) {
				answers = append(answers, append(Answer{}, binding...))
			}
			return
		}
		for _, v := range pools[i] {
			binding[i] = v
			walk(i + 1)
		}
	}
	walk(0)
	return answers, nil
}
