// Package fd implements functional-dependency reasoning over variable
// sets: the dependency set K(p) = {key(F) → vars(F) | F ∈ p} of
// Section 4.1 and the attribute-set closure used to compute F^{⊕,q}.
package fd

import "cqa/internal/schema"

// FD is a functional dependency From → To between sets of variables.
type FD struct {
	From schema.VarSet
	To   schema.VarSet
}

// FromAtoms builds K(p) for a set p of (non-negated) atoms:
// {key(F) → vars(F) | F ∈ p}.
func FromAtoms(atoms []schema.Atom) []FD {
	out := make([]FD, 0, len(atoms))
	for _, a := range atoms {
		out = append(out, FD{From: a.KeyVars(), To: a.Vars()})
	}
	return out
}

// Closure returns the closure of start under the dependencies: the least
// superset S of start such that From ⊆ S implies To ⊆ S for every FD. The
// input set is not modified.
func Closure(fds []FD, start schema.VarSet) schema.VarSet {
	closed := start.Copy()
	for changed := true; changed; {
		changed = false
		for _, d := range fds {
			if d.From.SubsetOf(closed) && !d.To.SubsetOf(closed) {
				closed.AddAll(d.To)
				changed = true
			}
		}
	}
	return closed
}
