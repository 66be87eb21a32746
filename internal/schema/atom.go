package schema

import (
	"fmt"
	"strings"
)

// Atom is an R-atom R(s₁,…,sₙ) over a relation with signature [n, k]: the
// first Key positions form the primary key. Following the paper, every
// relation name carries exactly one signature within a query, so the
// signature is stored on the atom itself.
type Atom struct {
	// Rel is the relation name.
	Rel string
	// Key is the number of primary-key positions (1 ≤ Key ≤ len(Terms)).
	Key int
	// Terms are the arguments, key positions first.
	Terms []Term
}

// NewAtom builds an atom; key is the number of leading key positions.
func NewAtom(rel string, key int, terms ...Term) Atom {
	return Atom{Rel: rel, Key: key, Terms: terms}
}

// Arity returns the number of positions of the atom.
func (a Atom) Arity() int { return len(a.Terms) }

// AllKey reports whether the signature is [n, n] (every position is a key
// position). All-key atoms are pivotal in the rewriting: an all-key
// relation can never be inconsistent.
func (a Atom) AllKey() bool { return a.Key == len(a.Terms) }

// KeyTerms returns the terms in primary-key positions.
func (a Atom) KeyTerms() []Term { return a.Terms[:a.Key] }

// NonKeyTerms returns the terms in non-primary-key positions.
func (a Atom) NonKeyTerms() []Term { return a.Terms[a.Key:] }

// KeyVars returns key(a): the set of variables in key positions.
func (a Atom) KeyVars() VarSet {
	s := make(VarSet)
	for _, t := range a.KeyTerms() {
		if t.IsVar {
			s[t.Name] = true
		}
	}
	return s
}

// Vars returns vars(a): the set of variables occurring anywhere in a.
func (a Atom) Vars() VarSet {
	s := make(VarSet)
	for _, t := range a.Terms {
		if t.IsVar {
			s[t.Name] = true
		}
	}
	return s
}

// Substitute returns a copy of the atom with every variable occurring in
// sub replaced by its image. Variables not in sub are left unchanged.
func (a Atom) Substitute(sub map[string]Term) Atom {
	terms := make([]Term, len(a.Terms))
	for i, t := range a.Terms {
		if t.IsVar {
			if img, ok := sub[t.Name]; ok {
				terms[i] = img
				continue
			}
		}
		terms[i] = t
	}
	return Atom{Rel: a.Rel, Key: a.Key, Terms: terms}
}

// String renders the atom in the repository's concrete syntax, with a `|`
// separating key from non-key positions: R(x | y). All-key atoms have no
// separator: R(x, y).
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Terms {
		if i > 0 {
			if i == a.Key {
				b.WriteString(" | ")
			} else {
				b.WriteString(", ")
			}
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Literal is an atom or a negated atom.
type Literal struct {
	// Neg reports whether the literal is a negated atom ¬Atom.
	Neg  bool
	Atom Atom
}

// Pos wraps an atom as a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg wraps an atom as a negated literal.
func Neg(a Atom) Literal { return Literal{Neg: true, Atom: a} }

// String renders the literal; negation is written with a leading `!`.
func (l Literal) String() string {
	if l.Neg {
		return "!" + l.Atom.String()
	}
	return l.Atom.String()
}

// Diseq is a disequality ⟨v₁,…,vₗ⟩ ≠ ⟨t₁,…,tₗ⟩ from Definition 6.3: it is
// satisfied when vᵢ ≠ tᵢ for at least one i (a disjunction). In the paper
// the left side is a sequence of distinct variables and the right side a
// sequence of constants; during rewriting the right side may also hold
// variables that are treated as constants, so both sides are general terms.
type Diseq struct {
	Left  []Term
	Right []Term
}

// NewDiseq builds a disequality; both sides must have equal length.
func NewDiseq(left, right []Term) Diseq {
	if len(left) != len(right) {
		panic(fmt.Sprintf("schema: disequality sides have lengths %d and %d", len(left), len(right)))
	}
	return Diseq{Left: left, Right: right}
}

// Vars returns the set of variables occurring on either side.
func (d Diseq) Vars() VarSet {
	s := make(VarSet)
	for _, t := range d.Left {
		if t.IsVar {
			s[t.Name] = true
		}
	}
	for _, t := range d.Right {
		if t.IsVar {
			s[t.Name] = true
		}
	}
	return s
}

// Substitute applies a substitution to both sides.
func (d Diseq) Substitute(sub map[string]Term) Diseq {
	apply := func(ts []Term) []Term {
		out := make([]Term, len(ts))
		for i, t := range ts {
			if t.IsVar {
				if img, ok := sub[t.Name]; ok {
					out[i] = img
					continue
				}
			}
			out[i] = t
		}
		return out
	}
	return Diseq{Left: apply(d.Left), Right: apply(d.Right)}
}

// String renders the disequality as <v1,v2> != <c1,c2>.
func (d Diseq) String() string {
	side := func(ts []Term) string {
		parts := make([]string, len(ts))
		for i, t := range ts {
			parts[i] = t.String()
		}
		return "<" + strings.Join(parts, ",") + ">"
	}
	return side(d.Left) + " != " + side(d.Right)
}
