package schema

// SimpleKey reports whether the signature has a single key position.
func (a Atom) SimpleKey() bool { return a.Key == 1 }

// NonKeyVars returns vars(a) \ key(a) — note this is the set difference of
// the variable sets, not the variables of non-key positions (a variable may
// occur both in key and non-key positions).
func (a Atom) NonKeyVars() VarSet { return a.Vars().Minus(a.KeyVars()) }

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Rel != b.Rel || a.Key != b.Key || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}
