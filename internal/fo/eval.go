package fo

import (
	"fmt"
	"sort"

	"cqa/internal/db"
	"cqa/internal/schema"
)

// Eval model-checks a first-order sentence against a database under
// active-domain semantics: quantifiers range over the constants of the
// database plus the constants of the formula. This is faithful to the
// paper's constructions, whose quantified witnesses always come from
// positive atoms and hence from the active domain.
//
// Eval panics if the formula has free variables (it must be a sentence) or
// contains an unknown node type.
func Eval(d *db.Database, f Formula) bool {
	if free := FreeVars(f); !free.Empty() {
		panic(fmt.Sprintf("fo: Eval on non-sentence with free variables %s", free))
	}
	ev := &evaluator{d: d}
	ev.domain = activeDomain(d, f, nil)
	return ev.eval(f, make(map[string]string))
}

// EvalWith model-checks a formula whose free variables are bound by env.
// The values of f's free variables are treated as the constants they
// stand for: they join the quantification domain, so EvalWith(d, f, env)
// agrees with Eval of f with env substituted.
func EvalWith(d *db.Database, f Formula, env map[string]string) bool {
	ev := &evaluator{d: d}
	e := make(map[string]string, len(env))
	for k, v := range env {
		e[k] = v
	}
	ev.domain = activeDomain(d, f, e)
	return ev.eval(f, e)
}

func activeDomain(d *db.Database, f Formula, env map[string]string) []string {
	set := make(map[string]bool)
	for _, v := range d.ActiveDomain() {
		set[v] = true
	}
	for c := range Constants(f) {
		set[c] = true
	}
	for x := range FreeVars(f) {
		if v, ok := env[x]; ok {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

type evaluator struct {
	d      *db.Database
	domain []string
}

func (ev *evaluator) eval(f Formula, env map[string]string) bool {
	switch g := f.(type) {
	case Truth:
		return bool(g)
	case Atom:
		args := make([]string, len(g.Terms))
		for i, t := range g.Terms {
			args[i] = ev.ground(t, env)
		}
		return ev.d.Has(db.Fact{Rel: g.Rel, Args: args})
	case Eq:
		return ev.ground(g.L, env) == ev.ground(g.R, env)
	case Not:
		return !ev.eval(g.F, env)
	case And:
		for _, sub := range g.Fs {
			if !ev.eval(sub, env) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range g.Fs {
			if ev.eval(sub, env) {
				return true
			}
		}
		return false
	case Implies:
		return !ev.eval(g.L, env) || ev.eval(g.R, env)
	case Exists:
		return ev.exists(g.Vars, g.Body, env)
	case Forall:
		// ∀x⃗ φ ≡ ¬∃x⃗ ¬φ; the exists path knows how to restrict
		// candidate values using the guards inside ¬φ.
		return !ev.exists(g.Vars, Not{F: g.Body}, env)
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

func (ev *evaluator) ground(t schema.Term, env map[string]string) string {
	if !t.IsVar {
		return t.Name
	}
	v, ok := env[t.Name]
	if !ok {
		panic(fmt.Sprintf("fo: unbound variable %s (formula is not a sentence or quantifier order is broken)", t.Name))
	}
	return v
}

// exists binds the variables one at a time, restricting each variable's
// range with guard atoms found in the body, and reports whether some
// binding satisfies the body.
func (ev *evaluator) exists(vars []string, body Formula, env map[string]string) bool {
	if len(vars) == 0 {
		return ev.eval(body, env)
	}
	x, rest := vars[0], vars[1:]
	if _, shadowedAlready := env[x]; shadowedAlready {
		// Inner quantifier shadows an outer binding of the same name;
		// save and restore.
		saved := env[x]
		defer func() { env[x] = saved }()
	}
	cands, restricted := ev.candidates(x, body, true)
	if !restricted {
		cands = ev.domain
	}
	for _, v := range cands {
		env[x] = v
		if ev.exists(rest, body, env) {
			delete(env, x)
			return true
		}
	}
	delete(env, x)
	return false
}

// candidates returns a sound over-approximation of the values of x for
// which f can be true (positive=true) or false (positive=false), by
// scanning for guard atoms and ground equalities. The boolean result
// reports whether a restriction was found; when false the caller must fall
// back to the active domain.
func (ev *evaluator) candidates(x string, f Formula, positive bool) ([]string, bool) {
	switch g := f.(type) {
	case Truth:
		return nil, false
	case Atom:
		if !positive {
			return nil, false
		}
		var out []string
		found := false
		r := ev.d.Relation(g.Rel)
		for i, t := range g.Terms {
			if t.IsVar && t.Name == x {
				if r == nil {
					// Unknown relation: the atom can never hold.
					return nil, true
				}
				if !found {
					out = r.ColumnValues(i)
					found = true
				}
			}
		}
		return out, found
	case Eq:
		if !positive {
			return nil, false
		}
		if g.L.IsVar && g.L.Name == x && !g.R.IsVar {
			return []string{g.R.Name}, true
		}
		if g.R.IsVar && g.R.Name == x && !g.L.IsVar {
			return []string{g.L.Name}, true
		}
		return nil, false
	case Not:
		return ev.candidates(x, g.F, !positive)
	case And:
		if positive {
			// All conjuncts must hold; any single restriction is sound.
			return ev.firstRestriction(x, g.Fs, true)
		}
		// Some conjunct must fail; need the union over all of them.
		return ev.unionRestriction(x, g.Fs, false)
	case Or:
		if positive {
			return ev.unionRestriction(x, g.Fs, true)
		}
		return ev.firstRestriction(x, g.Fs, false)
	case Implies:
		if positive {
			// L→R true: either ¬L or R; union like Or.
			return ev.unionRestriction2(x, Not{F: g.L}, g.R, true)
		}
		// L→R false: L true and R false; any restriction is sound.
		if out, ok := ev.candidates(x, g.L, true); ok {
			return out, true
		}
		return ev.candidates(x, g.R, false)
	case Exists:
		for _, v := range g.Vars {
			if v == x {
				return nil, false // x is shadowed; no free occurrence below
			}
		}
		if positive {
			return ev.candidates(x, g.Body, true)
		}
		return nil, false
	case Forall:
		for _, v := range g.Vars {
			if v == x {
				return nil, false
			}
		}
		if !positive {
			// ∀z φ false ⟺ φ false for some z; restrictions on x from φ
			// being false are sound.
			return ev.candidates(x, g.Body, false)
		}
		return nil, false
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// firstRestriction returns the smallest single-child restriction, trying
// every child.
func (ev *evaluator) firstRestriction(x string, fs []Formula, positive bool) ([]string, bool) {
	var best []string
	found := false
	for _, sub := range fs {
		if out, ok := ev.candidates(x, sub, positive); ok {
			if !found || len(out) < len(best) {
				best = out
				found = true
			}
		}
	}
	return best, found
}

// unionRestriction returns the union of the children's restrictions; every
// child must restrict, otherwise there is no sound restriction.
func (ev *evaluator) unionRestriction(x string, fs []Formula, positive bool) ([]string, bool) {
	set := make(map[string]bool)
	for _, sub := range fs {
		out, ok := ev.candidates(x, sub, positive)
		if !ok {
			return nil, false
		}
		for _, v := range out {
			set[v] = true
		}
	}
	vals := make([]string, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals, true
}

func (ev *evaluator) unionRestriction2(x string, a, b Formula, positive bool) ([]string, bool) {
	return ev.unionRestriction(x, []Formula{a, b}, positive)
}
