package fd

import "cqa/internal/schema"

// Implies reports whether the dependencies entail From → x, i.e. whether x
// is in the closure of From.
func Implies(fds []FD, from schema.VarSet, x string) bool {
	return Closure(fds, from).Has(x)
}
