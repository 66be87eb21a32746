package fo

import (
	"fmt"
	"strconv"

	"cqa/internal/schema"
)

// NNF returns the negation normal form: negation is pushed inward until
// it rests on atoms and equalities, implications are expanded, and double
// negations are collapsed. The transformation is semantics-preserving on
// every database.
func NNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, negated bool) Formula {
	switch g := f.(type) {
	case Truth:
		return Truth(bool(g) != negated)
	case Atom:
		if negated {
			return Not{F: g}
		}
		return g
	case Eq:
		if negated {
			return Not{F: g}
		}
		return g
	case Not:
		return nnf(g.F, !negated)
	case And:
		parts := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			parts[i] = nnf(sub, negated)
		}
		if negated {
			return NewOr(parts...)
		}
		return NewAnd(parts...)
	case Or:
		parts := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			parts[i] = nnf(sub, negated)
		}
		if negated {
			return NewAnd(parts...)
		}
		return NewOr(parts...)
	case Implies:
		// L → R ≡ ¬L ∨ R.
		if negated {
			return NewAnd(nnf(g.L, false), nnf(g.R, true))
		}
		return NewOr(nnf(g.L, true), nnf(g.R, false))
	case Exists:
		body := nnf(g.Body, negated)
		if negated {
			return Forall{Vars: g.Vars, Body: body}
		}
		return Exists{Vars: g.Vars, Body: body}
	case Forall:
		body := nnf(g.Body, negated)
		if negated {
			return Exists{Vars: g.Vars, Body: body}
		}
		return Forall{Vars: g.Vars, Body: body}
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// QuantifierRank returns the maximum nesting depth of quantifiers.
func QuantifierRank(f Formula) int {
	switch g := f.(type) {
	case Atom, Eq, Truth:
		return 0
	case Not:
		return QuantifierRank(g.F)
	case And:
		m := 0
		for _, sub := range g.Fs {
			if r := QuantifierRank(sub); r > m {
				m = r
			}
		}
		return m
	case Or:
		m := 0
		for _, sub := range g.Fs {
			if r := QuantifierRank(sub); r > m {
				m = r
			}
		}
		return m
	case Implies:
		l, r := QuantifierRank(g.L), QuantifierRank(g.R)
		if l > r {
			return l
		}
		return r
	case Exists:
		return len(g.Vars) + QuantifierRank(g.Body)
	case Forall:
		return len(g.Vars) + QuantifierRank(g.Body)
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// AlternationDepth returns the number of ∃/∀ alternations along the
// deepest path of the NNF of the formula — a coarse measure of logical
// complexity used to report rewriting shapes.
func AlternationDepth(f Formula) int {
	depth, _ := alternation(NNF(f), 0)
	return depth
}

// alternation returns the maximum alternation count below f, given the
// last quantifier kind (0 none, 1 ∃, 2 ∀).
func alternation(f Formula, last int) (int, int) {
	switch g := f.(type) {
	case Atom, Eq, Truth:
		return 0, last
	case Not:
		return alternation(g.F, last)
	case And:
		m := 0
		for _, sub := range g.Fs {
			if d, _ := alternation(sub, last); d > m {
				m = d
			}
		}
		return m, last
	case Or:
		m := 0
		for _, sub := range g.Fs {
			if d, _ := alternation(sub, last); d > m {
				m = d
			}
		}
		return m, last
	case Implies:
		l, _ := alternation(g.L, last)
		r, _ := alternation(g.R, last)
		if l > r {
			return l, last
		}
		return r, last
	case Exists:
		inc := 0
		if last == 2 {
			inc = 1
		}
		d, _ := alternation(g.Body, 1)
		return inc + d, 1
	case Forall:
		inc := 0
		if last == 1 {
			inc = 1
		}
		d, _ := alternation(g.Body, 2)
		return inc + d, 2
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// Prenex returns an equivalent formula with all quantifiers at the front,
// after NNF and with bound variables renamed apart. The equivalence holds
// over non-empty active domains (the classical prenex laws assume a
// non-empty universe; an empty active domain arises only for an empty
// database and constant-free formula).
func Prenex(f Formula) Formula {
	p := &prenexer{used: make(map[string]bool)}
	for v := range FreeVars(f) {
		p.used[v] = true
	}
	collectAllVars(f, p.used)
	prefix, matrix := p.pull(NNF(f), map[string]string{})
	out := matrix
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i].forall {
			out = Forall{Vars: []string{prefix[i].name}, Body: out}
		} else {
			out = Exists{Vars: []string{prefix[i].name}, Body: out}
		}
	}
	return out
}

type quant struct {
	name   string
	forall bool
}

type prenexer struct {
	used map[string]bool
	next int
}

func (p *prenexer) fresh(base string) string {
	if !p.used[base] {
		p.used[base] = true
		return base
	}
	for {
		p.next++
		name := base + "_" + strconv.Itoa(p.next)
		if !p.used[name] {
			p.used[name] = true
			return name
		}
	}
}

// pull extracts the quantifier prefix from an NNF formula, renaming bound
// variables apart; ren maps original bound names to their fresh names in
// the current scope.
func (p *prenexer) pull(f Formula, ren map[string]string) ([]quant, Formula) {
	switch g := f.(type) {
	case Truth:
		return nil, g
	case Atom:
		return nil, Atom{Rel: g.Rel, Key: g.Key, Terms: renameTerms(g.Terms, ren)}
	case Eq:
		ts := renameTerms([]schema.Term{g.L, g.R}, ren)
		return nil, Eq{L: ts[0], R: ts[1]}
	case Not:
		// NNF: negation only on atoms/equalities.
		inner, matrix := p.pull(g.F, ren)
		if len(inner) != 0 {
			panic("fo: Prenex on non-NNF input")
		}
		return nil, Not{F: matrix}
	case And:
		var prefix []quant
		parts := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			pre, matrix := p.pull(sub, ren)
			prefix = append(prefix, pre...)
			parts[i] = matrix
		}
		return prefix, NewAnd(parts...)
	case Or:
		var prefix []quant
		parts := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			pre, matrix := p.pull(sub, ren)
			prefix = append(prefix, pre...)
			parts[i] = matrix
		}
		return prefix, NewOr(parts...)
	case Exists:
		return p.pullQuant(g.Vars, g.Body, ren, false)
	case Forall:
		return p.pullQuant(g.Vars, g.Body, ren, true)
	default:
		panic(fmt.Sprintf("fo: Prenex on unexpected node %T (not NNF?)", f))
	}
}

func (p *prenexer) pullQuant(vars []string, body Formula, ren map[string]string, forall bool) ([]quant, Formula) {
	inner := make(map[string]string, len(ren)+len(vars))
	for k, v := range ren {
		inner[k] = v
	}
	var prefix []quant
	for _, v := range vars {
		fresh := p.fresh(v)
		inner[v] = fresh
		prefix = append(prefix, quant{name: fresh, forall: forall})
	}
	sub, matrix := p.pull(body, inner)
	return append(prefix, sub...), matrix
}

// renameTerms applies the bound-variable renaming to a term list.
func renameTerms(ts []schema.Term, ren map[string]string) []schema.Term {
	out := make([]schema.Term, len(ts))
	for i, t := range ts {
		if t.IsVar {
			if fresh, ok := ren[t.Name]; ok {
				out[i] = schema.Var(fresh)
				continue
			}
		}
		out[i] = t
	}
	return out
}

// collectAllVars adds every variable name occurring anywhere (free or
// bound) to the set, so fresh names never collide.
func collectAllVars(f Formula, out map[string]bool) {
	switch g := f.(type) {
	case Atom:
		for _, t := range g.Terms {
			if t.IsVar {
				out[t.Name] = true
			}
		}
	case Eq:
		for _, t := range []schema.Term{g.L, g.R} {
			if t.IsVar {
				out[t.Name] = true
			}
		}
	case Truth:
	case Not:
		collectAllVars(g.F, out)
	case And:
		for _, sub := range g.Fs {
			collectAllVars(sub, out)
		}
	case Or:
		for _, sub := range g.Fs {
			collectAllVars(sub, out)
		}
	case Implies:
		collectAllVars(g.L, out)
		collectAllVars(g.R, out)
	case Exists:
		for _, v := range g.Vars {
			out[v] = true
		}
		collectAllVars(g.Body, out)
	case Forall:
		for _, v := range g.Vars {
			out[v] = true
		}
		collectAllVars(g.Body, out)
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// Rename applies ren to every variable occurrence of f, bound or free.
// A variable ren maps to a constant must occur free only: that
// instantiates a parameter. ren must be injective on the variables it
// renames; a bound variable it does not map is renamed apart when its
// name is one of ren's targets, so no occurrence is captured. Rename
// renders a shape's rewriting in the words of one query of the shape.
func Rename(f Formula, ren map[string]schema.Term) Formula {
	r := &renamer{prenexer: prenexer{used: make(map[string]bool)}, ren: ren, targets: make(map[string]bool)}
	collectAllVars(f, r.used)
	for _, t := range ren {
		if t.IsVar {
			r.targets[t.Name] = true
			r.used[t.Name] = true
		}
	}
	return r.formula(f, ren)
}

type renamer struct {
	prenexer
	ren     map[string]schema.Term
	targets map[string]bool
}

// formula renames f under scope, the terms the variables in scope stand
// for.
func (r *renamer) formula(f Formula, scope map[string]schema.Term) Formula {
	switch g := f.(type) {
	case Truth:
		return g
	case Atom:
		return Atom{Rel: g.Rel, Key: g.Key, Terms: r.terms(g.Terms, scope)}
	case Eq:
		ts := r.terms([]schema.Term{g.L, g.R}, scope)
		return Eq{L: ts[0], R: ts[1]}
	case Not:
		return Not{F: r.formula(g.F, scope)}
	case And:
		return And{Fs: r.all(g.Fs, scope)}
	case Or:
		return Or{Fs: r.all(g.Fs, scope)}
	case Implies:
		return Implies{L: r.formula(g.L, scope), R: r.formula(g.R, scope)}
	case Exists:
		vars, inner := r.bind(g.Vars, scope)
		return Exists{Vars: vars, Body: r.formula(g.Body, inner)}
	case Forall:
		vars, inner := r.bind(g.Vars, scope)
		return Forall{Vars: vars, Body: r.formula(g.Body, inner)}
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

func (r *renamer) all(fs []Formula, scope map[string]schema.Term) []Formula {
	out := make([]Formula, len(fs))
	for i, sub := range fs {
		out[i] = r.formula(sub, scope)
	}
	return out
}

func (r *renamer) terms(ts []schema.Term, scope map[string]schema.Term) []schema.Term {
	out := make([]schema.Term, len(ts))
	for i, t := range ts {
		out[i] = t
		if to, ok := scope[t.Name]; ok && t.IsVar {
			out[i] = to
		}
	}
	return out
}

// bind names a quantifier block's variables and returns the scope of
// its body.
func (r *renamer) bind(vars []string, scope map[string]schema.Term) ([]string, map[string]schema.Term) {
	inner := make(map[string]schema.Term, len(scope)+len(vars))
	for k, v := range scope {
		inner[k] = v
	}
	out := make([]string, len(vars))
	for i, v := range vars {
		name := v
		if to, ok := r.ren[v]; ok && to.IsVar {
			name = to.Name
		} else if r.targets[v] {
			name = r.fresh(v)
		}
		out[i] = name
		inner[v] = schema.Var(name)
	}
	return out, inner
}
