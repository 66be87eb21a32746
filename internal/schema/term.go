// Package schema defines the syntactic objects of the paper: terms, atoms
// with primary-key signatures, and self-join-free Boolean conjunctive
// queries with negated atoms (the class sjfBCQ¬ of Koutris & Wijsen,
// PODS 2018), together with the validity notions used throughout — safety,
// self-join-freeness, guarded and weakly-guarded negation — and the
// extension sjfBCQ¬≠ with disequalities (Definition 6.3). Query.Shape
// canonicalises a query into the key its prepared plan is shared under —
// constants lifted to parameters — and its parameter values.
package schema

import (
	"sort"
	"strings"
)

// Term is a variable or a constant. The zero value is the empty constant.
type Term struct {
	// IsVar reports whether the term is a variable; otherwise it is a
	// constant.
	IsVar bool
	// Name is the variable name or the constant value.
	Name string
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// Const returns a constant term with the given value.
func Const(value string) Term { return Term{IsVar: false, Name: value} }

// String renders the term. Constants are single-quoted so that they are
// never confused with variables.
func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return "'" + t.Name + "'"
}

// VarSet is a set of variable names.
type VarSet map[string]bool

// NewVarSet builds a set from the given names.
func NewVarSet(names ...string) VarSet {
	s := make(VarSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Has reports membership.
func (s VarSet) Has(name string) bool { return s[name] }

// Add inserts a name and returns the set for chaining.
func (s VarSet) Add(name string) VarSet {
	s[name] = true
	return s
}

// AddAll inserts every element of other.
func (s VarSet) AddAll(other VarSet) VarSet {
	for n := range other {
		s[n] = true
	}
	return s
}

// Copy returns an independent copy of the set.
func (s VarSet) Copy() VarSet {
	c := make(VarSet, len(s))
	for n := range s {
		c[n] = true
	}
	return c
}

// Union returns a new set containing the elements of both sets.
func (s VarSet) Union(other VarSet) VarSet { return s.Copy().AddAll(other) }

// Intersect returns a new set with the elements common to both sets.
func (s VarSet) Intersect(other VarSet) VarSet {
	c := make(VarSet)
	for n := range s {
		if other[n] {
			c[n] = true
		}
	}
	return c
}

// Minus returns a new set with the elements of s not in other.
func (s VarSet) Minus(other VarSet) VarSet {
	c := make(VarSet)
	for n := range s {
		if !other[n] {
			c[n] = true
		}
	}
	return c
}

// SubsetOf reports whether every element of s belongs to other.
func (s VarSet) SubsetOf(other VarSet) bool {
	for n := range s {
		if !other[n] {
			return false
		}
	}
	return true
}

// Equal reports whether both sets have the same elements.
func (s VarSet) Equal(other VarSet) bool {
	return len(s) == len(other) && s.SubsetOf(other)
}

// Empty reports whether the set has no elements.
func (s VarSet) Empty() bool { return len(s) == 0 }

// Sorted returns the elements in lexicographic order.
func (s VarSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the set as {a, b, c}.
func (s VarSet) String() string {
	return "{" + strings.Join(s.Sorted(), ", ") + "}"
}
