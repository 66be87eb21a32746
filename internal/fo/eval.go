package fo

import (
	"cqa/internal/db"
)

// Eval model-checks a first-order sentence against a database under
// active-domain semantics: quantifiers range over the constants of the
// database plus the constants of the formula. This is faithful to the
// paper's constructions, whose quantified witnesses always come from
// positive atoms and hence from the active domain. It is the one-shot
// form of the compiled path: Compile, Bind to d's interned view, Eval.
// A relation the database does not know is empty.
//
// Eval panics if the formula has free variables (it must be a sentence) or
// contains an unknown node type.
func Eval(d *db.Database, f Formula) bool {
	p, err := Compile(f, nil)
	if err != nil {
		panic(err)
	}
	return p.Bind(d.Interned()).Eval()
}
