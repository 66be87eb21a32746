// Package fo implements the fragment of first-order logic needed for
// consistent first-order rewritings: formulas with relation atoms,
// (dis)equalities, Boolean connectives, implication, and quantifiers,
// together with an active-domain model checker over internal/db databases,
// a simplifier, and a pretty printer, and the compiled evaluator
// (compile.go): a formula lowered once, bound once per interned
// database, and evaluated per call with the values of its parameters —
// the free variables that stand for a query shape's constants.
//
// The complexity class FO of the paper is "first-order logic with equality
// and constants, but without other built-in predicates or function
// symbols"; this AST is exactly that fragment.
package fo

import (
	"fmt"
	"strings"

	"cqa/internal/schema"
)

// Formula is a first-order formula. Implementations are Atom, Eq, Truth,
// Not, And, Or, Implies, Exists, and Forall.
type Formula interface {
	isFormula()
	// String renders the formula with Unicode logical symbols.
	String() string
}

// Atom is a relation atom R(t₁,…,tₙ). Key records the number of
// primary-key positions so that printers can show the separator; it has no
// logical meaning.
type Atom struct {
	Rel   string
	Key   int
	Terms []schema.Term
}

// Eq is the equality t₁ = t₂.
type Eq struct{ L, R schema.Term }

// Truth is the constant true or false formula.
type Truth bool

// Not is negation.
type Not struct{ F Formula }

// And is conjunction over zero or more formulas (empty = true).
type And struct{ Fs []Formula }

// Or is disjunction over zero or more formulas (empty = false).
type Or struct{ Fs []Formula }

// Implies is the implication L → R.
type Implies struct{ L, R Formula }

// Exists is existential quantification over one or more variables.
type Exists struct {
	Vars []string
	Body Formula
}

// Forall is universal quantification over one or more variables.
type Forall struct {
	Vars []string
	Body Formula
}

func (Atom) isFormula()    {}
func (Eq) isFormula()      {}
func (Truth) isFormula()   {}
func (Not) isFormula()     {}
func (And) isFormula()     {}
func (Or) isFormula()      {}
func (Implies) isFormula() {}
func (Exists) isFormula()  {}
func (Forall) isFormula()  {}

// NewAnd builds a conjunction, flattening nested Ands.
func NewAnd(fs ...Formula) Formula {
	var flat []Formula
	for _, f := range fs {
		if a, ok := f.(And); ok {
			flat = append(flat, a.Fs...)
			continue
		}
		flat = append(flat, f)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return And{Fs: flat}
}

// NewOr builds a disjunction, flattening nested Ors.
func NewOr(fs ...Formula) Formula {
	var flat []Formula
	for _, f := range fs {
		if o, ok := f.(Or); ok {
			flat = append(flat, o.Fs...)
			continue
		}
		flat = append(flat, f)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return Or{Fs: flat}
}

// NewExists quantifies body over vars; with no vars it returns body.
func NewExists(vars []string, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	if e, ok := body.(Exists); ok {
		return Exists{Vars: append(append([]string{}, vars...), e.Vars...), Body: e.Body}
	}
	return Exists{Vars: vars, Body: body}
}

// NewForall quantifies body over vars; with no vars it returns body.
func NewForall(vars []string, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	if u, ok := body.(Forall); ok {
		return Forall{Vars: append(append([]string{}, vars...), u.Vars...), Body: u.Body}
	}
	return Forall{Vars: vars, Body: body}
}

// Neq builds the disequality ¬(l = r).
func Neq(l, r schema.Term) Formula { return Not{F: Eq{L: l, R: r}} }

// FreeVars returns the free variables of the formula.
func FreeVars(f Formula) schema.VarSet {
	out := make(schema.VarSet)
	collectFree(f, make(schema.VarSet), out)
	return out
}

func collectFree(f Formula, bound, out schema.VarSet) {
	switch g := f.(type) {
	case Atom:
		for _, t := range g.Terms {
			if t.IsVar && !bound.Has(t.Name) {
				out[t.Name] = true
			}
		}
	case Eq:
		for _, t := range []schema.Term{g.L, g.R} {
			if t.IsVar && !bound.Has(t.Name) {
				out[t.Name] = true
			}
		}
	case Truth:
	case Not:
		collectFree(g.F, bound, out)
	case And:
		for _, sub := range g.Fs {
			collectFree(sub, bound, out)
		}
	case Or:
		for _, sub := range g.Fs {
			collectFree(sub, bound, out)
		}
	case Implies:
		collectFree(g.L, bound, out)
		collectFree(g.R, bound, out)
	case Exists:
		inner := bound.Copy()
		for _, v := range g.Vars {
			inner[v] = true
		}
		collectFree(g.Body, inner, out)
	case Forall:
		inner := bound.Copy()
		for _, v := range g.Vars {
			inner[v] = true
		}
		collectFree(g.Body, inner, out)
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// Constants returns the set of constant values occurring in the formula.
func Constants(f Formula) map[string]bool {
	out := make(map[string]bool)
	var walk func(Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case Atom:
			for _, t := range g.Terms {
				if !t.IsVar {
					out[t.Name] = true
				}
			}
		case Eq:
			for _, t := range []schema.Term{g.L, g.R} {
				if !t.IsVar {
					out[t.Name] = true
				}
			}
		case Truth:
		case Not:
			walk(g.F)
		case And:
			for _, sub := range g.Fs {
				walk(sub)
			}
		case Or:
			for _, sub := range g.Fs {
				walk(sub)
			}
		case Implies:
			walk(g.L)
			walk(g.R)
		case Exists:
			walk(g.Body)
		case Forall:
			walk(g.Body)
		default:
			panic(fmt.Sprintf("fo: unknown formula %T", f))
		}
	}
	walk(f)
	return out
}

// Size returns the number of AST nodes; terms are not counted. It is the
// measure used to report rewriting growth (the paper remarks that the
// rewriting of q_Hall is exponential in the query size).
func Size(f Formula) int {
	switch g := f.(type) {
	case Atom, Eq, Truth:
		return 1
	case Not:
		return 1 + Size(g.F)
	case And:
		n := 1
		for _, sub := range g.Fs {
			n += Size(sub)
		}
		return n
	case Or:
		n := 1
		for _, sub := range g.Fs {
			n += Size(sub)
		}
		return n
	case Implies:
		return 1 + Size(g.L) + Size(g.R)
	case Exists:
		return 1 + Size(g.Body)
	case Forall:
		return 1 + Size(g.Body)
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Terms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (e Eq) String() string { return e.L.String() + " = " + e.R.String() }

func (t Truth) String() string {
	if t {
		return "true"
	}
	return "false"
}

func (n Not) String() string {
	if eq, ok := n.F.(Eq); ok {
		return eq.L.String() + " ≠ " + eq.R.String()
	}
	return "¬" + paren(n.F)
}

func (a And) String() string {
	if len(a.Fs) == 0 {
		return "true"
	}
	parts := make([]string, len(a.Fs))
	for i, f := range a.Fs {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " ∧ ")
}

func (o Or) String() string {
	if len(o.Fs) == 0 {
		return "false"
	}
	parts := make([]string, len(o.Fs))
	for i, f := range o.Fs {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " ∨ ")
}

func (im Implies) String() string { return paren(im.L) + " → " + paren(im.R) }

func (e Exists) String() string {
	return "∃" + strings.Join(e.Vars, "∃") + "(" + e.Body.String() + ")"
}

func (u Forall) String() string {
	return "∀" + strings.Join(u.Vars, "∀") + "(" + u.Body.String() + ")"
}

// paren parenthesizes compound subformulas for unambiguous output.
func paren(f Formula) string {
	switch f.(type) {
	case Atom, Truth, Exists, Forall, Not, Eq:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}
