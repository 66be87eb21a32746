package schema

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Query is a (candidate) query in sjfBCQ¬: a set of literals, kept in a
// stable slice order for deterministic output. Construction does not
// validate; call Validate to check self-join-freeness and safety.
type Query struct {
	Lits []Literal
}

// NewQuery builds a query from literals.
func NewQuery(lits ...Literal) Query { return Query{Lits: lits} }

// Positive returns q⁺, the non-negated atoms in query order.
func (q Query) Positive() []Atom {
	var out []Atom
	for _, l := range q.Lits {
		if !l.Neg {
			out = append(out, l.Atom)
		}
	}
	return out
}

// Negated returns q⁻, the atoms whose negation appears in q, in query order.
func (q Query) Negated() []Atom {
	var out []Atom
	for _, l := range q.Lits {
		if l.Neg {
			out = append(out, l.Atom)
		}
	}
	return out
}

// Atoms returns q⁺ ∪ q⁻ in query order.
func (q Query) Atoms() []Atom {
	out := make([]Atom, len(q.Lits))
	for i, l := range q.Lits {
		out[i] = l.Atom
	}
	return out
}

// AtomByRel returns the atom with the given relation name and whether the
// query contains one. Self-join-freeness makes the answer unique.
func (q Query) AtomByRel(rel string) (Atom, bool) {
	for _, l := range q.Lits {
		if l.Atom.Rel == rel {
			return l.Atom, true
		}
	}
	return Atom{}, false
}

// IsNegated reports whether the atom with the given relation name occurs
// negated. The result is meaningful only for relation names present in q.
func (q Query) IsNegated(rel string) bool {
	for _, l := range q.Lits {
		if l.Atom.Rel == rel {
			return l.Neg
		}
	}
	return false
}

// CoKey returns the key tuple every literal of q carries — negated
// literals included — and whether q is co-keyed, i.e. all those tuples
// are term-wise identical (one constant or one shared variable per key
// position; vacuously so for the empty query).
//
// Any valuation then gives every atom the same key values, so each
// valuation's facts — the positive ones it needs and the negated ones it
// must miss — lie in the blocks of one key k. Repairs choose per block,
// independently, hence
//
//	CERTAINTY(q, D) = ∨ₖ CERTAINTY(q, D|ₖ)
//
// over the keys k the tuple's constants admit, where D|ₖ is D's facts of
// q's relations keyed k: a falsifying repair of every D|ₖ unions to a
// falsifying repair of D. Shard scatter plans (shard.PlanFor) and the
// block-local carry rule (delta.Carry) both rest on this.
func (q Query) CoKey() ([]Term, bool) {
	if len(q.Lits) == 0 {
		return nil, true
	}
	key := q.Lits[0].Atom.KeyTerms()
	for _, l := range q.Lits[1:] {
		if !slices.Equal(l.Atom.KeyTerms(), key) {
			return nil, false
		}
	}
	return key, true
}

// Vars returns vars(q).
func (q Query) Vars() VarSet {
	s := make(VarSet)
	for _, l := range q.Lits {
		s.AddAll(l.Atom.Vars())
	}
	return s
}

// PositiveVars returns the union of vars(P) for P ∈ q⁺.
func (q Query) PositiveVars() VarSet {
	s := make(VarSet)
	for _, l := range q.Lits {
		if !l.Neg {
			s.AddAll(l.Atom.Vars())
		}
	}
	return s
}

// Constants returns the set of constant values occurring in q.
func (q Query) Constants() map[string]bool {
	s := make(map[string]bool)
	for _, l := range q.Lits {
		for _, t := range l.Atom.Terms {
			if !t.IsVar {
				s[t.Name] = true
			}
		}
	}
	return s
}

// Substitute applies a substitution to every literal, returning the query
// q_[x⃗ ↦ c⃗] of the paper.
func (q Query) Substitute(sub map[string]Term) Query {
	lits := make([]Literal, len(q.Lits))
	for i, l := range q.Lits {
		lits[i] = Literal{Neg: l.Neg, Atom: l.Atom.Substitute(sub)}
	}
	return Query{Lits: lits}
}

// Without returns a copy of q with the literal for the given relation name
// removed (both F and ¬F, though self-join-freeness means at most one
// exists).
func (q Query) Without(rel string) Query {
	var lits []Literal
	for _, l := range q.Lits {
		if l.Atom.Rel != rel {
			lits = append(lits, l)
		}
	}
	return Query{Lits: lits}
}

// Clone returns a deep copy of the query.
func (q Query) Clone() Query {
	lits := make([]Literal, len(q.Lits))
	for i, l := range q.Lits {
		terms := make([]Term, len(l.Atom.Terms))
		copy(terms, l.Atom.Terms)
		lits[i] = Literal{Neg: l.Neg, Atom: Atom{Rel: l.Atom.Rel, Key: l.Atom.Key, Terms: terms}}
	}
	return Query{Lits: lits}
}

// String renders the query as a comma-separated list of literals.
func (q Query) String() string {
	parts := make([]string, len(q.Lits))
	for i, l := range q.Lits {
		parts[i] = l.String()
	}
	return strings.Join(parts, ", ")
}

// Validate checks that q is a well-formed member of sjfBCQ¬:
//
//   - every atom has arity ≥ 1 and 1 ≤ key ≤ arity;
//   - no two literals share a relation name (self-join-freeness);
//   - every variable of a negated atom occurs in a non-negated atom
//     (safety).
func (q Query) Validate() error {
	seen := make(map[string]bool)
	for _, l := range q.Lits {
		a := l.Atom
		if a.Rel == "" {
			return errors.New("schema: atom with empty relation name")
		}
		if len(a.Terms) == 0 {
			return fmt.Errorf("schema: atom %s has arity 0", a.Rel)
		}
		if a.Key < 1 || a.Key > len(a.Terms) {
			return fmt.Errorf("schema: atom %s has invalid signature [%d, %d]", a.Rel, len(a.Terms), a.Key)
		}
		if seen[a.Rel] {
			return fmt.Errorf("schema: relation %s occurs twice (self-join)", a.Rel)
		}
		seen[a.Rel] = true
	}
	pos := q.PositiveVars()
	for _, n := range q.Negated() {
		if !n.Vars().SubsetOf(pos) {
			return fmt.Errorf("schema: negated atom %s violates safety: variables %s do not all occur in a non-negated atom",
				n, n.Vars().Minus(pos))
		}
	}
	return nil
}

// coveredByPositive reports whether variables x and y occur together in
// some non-negated atom of q. When x == y it reports whether x occurs in a
// non-negated atom at all.
func (q Query) coveredByPositive(x, y string) bool {
	for _, p := range q.Positive() {
		vars := p.Vars()
		if vars[x] && vars[y] {
			return true
		}
	}
	return false
}

// WeaklyGuarded reports whether negation in q is weakly-guarded: for every
// N ∈ q⁻ and all x, y ∈ vars(N), some P ∈ q⁺ has both x and y.
func (q Query) WeaklyGuarded() bool {
	for _, n := range q.Negated() {
		vars := n.Vars().Sorted()
		for i, x := range vars {
			for _, y := range vars[i:] {
				if !q.coveredByPositive(x, y) {
					return false
				}
			}
		}
	}
	return true
}

// Guarded reports whether negation in q is guarded: for every N ∈ q⁻ there
// is a P ∈ q⁺ with vars(N) ⊆ vars(P). Guarded implies weakly-guarded.
func (q Query) Guarded() bool {
	for _, n := range q.Negated() {
		nv := n.Vars()
		ok := false
		for _, p := range q.Positive() {
			if nv.SubsetOf(p.Vars()) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// ExtQuery is a query in sjfBCQ¬≠ (Definition 6.3): a query plus a set of
// disequalities. The plain Query embeds as an ExtQuery with no
// disequalities.
type ExtQuery struct {
	Query
	Diseqs []Diseq
}

// Ext wraps a plain query as an extended query.
func Ext(q Query) ExtQuery { return ExtQuery{Query: q} }

// WithDiseq returns a copy of the extended query with one more
// disequality.
func (e ExtQuery) WithDiseq(d Diseq) ExtQuery {
	ds := make([]Diseq, len(e.Diseqs)+1)
	copy(ds, e.Diseqs)
	ds[len(e.Diseqs)] = d
	return ExtQuery{Query: e.Query, Diseqs: ds}
}

// Substitute applies a substitution to the query part and all
// disequalities.
func (e ExtQuery) Substitute(sub map[string]Term) ExtQuery {
	ds := make([]Diseq, len(e.Diseqs))
	for i, d := range e.Diseqs {
		ds[i] = d.Substitute(sub)
	}
	return ExtQuery{Query: e.Query.Substitute(sub), Diseqs: ds}
}

// Vars returns the variables of the query part and of all disequalities.
func (e ExtQuery) Vars() VarSet {
	s := e.Query.Vars()
	for _, d := range e.Diseqs {
		s.AddAll(d.Vars())
	}
	return s
}

// WeaklyGuarded extends weak-guardedness to disequalities per
// Definition 6.3: every pair of left-hand-side variables of a disequality
// must co-occur in a non-negated atom.
func (e ExtQuery) WeaklyGuarded() bool {
	if !e.Query.WeaklyGuarded() {
		return false
	}
	for _, d := range e.Diseqs {
		left := make(VarSet)
		for _, t := range d.Left {
			if t.IsVar {
				left[t.Name] = true
			}
		}
		vars := left.Sorted()
		for i, x := range vars {
			for _, y := range vars[i:] {
				if !e.coveredByPositive(x, y) {
					return false
				}
			}
		}
	}
	return true
}

// String renders the extended query.
func (e ExtQuery) String() string {
	s := e.Query.String()
	for _, d := range e.Diseqs {
		if s != "" {
			s += ", "
		}
		s += d.String()
	}
	return s
}
