package fo_test

import (
	"sort"
	"testing"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/schema"
)

// FuzzCompiledEval decodes a small database and a closed formula from the
// fuzz input and checks that the compiled pipeline agrees with the
// unoptimized reference evaluator. Part of `make fuzz`.
func FuzzCompiledEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 5, 9, 200, 14, 3, 3, 7})
	f.Add([]byte{7, 255, 1, 0, 42, 17, 6, 6, 6, 80, 80, 13, 2, 91})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// ∀v0 ((R('b', v0) ∧ true) → ∃v1 R(v0, v1)) over R(b | a), R(b | c),
	// R(a | d): the scalar ∀ walks the block of 'b' while the nested ∃,
	// vectorized, resolves its own row into the machine's scratch; the
	// counterexample v0 = c is the block's second row.
	f.Add([]byte{3, 0, 1, 0, 0, 1, 2, 0, 0, 3, 6, 3, 1, 0, 1, 0, 3, 0, 4, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &fuzzDecoder{data: data}
		d := fz.database()
		formula := fz.sentence()
		want := fo.EvalReference(d, formula)
		p, err := fo.Compile(formula, nil)
		if err != nil {
			t.Fatalf("Compile(%s, nil): %v", formula, err)
		}
		b := p.Bind(d.Interned())
		if got := b.Eval(); got != want {
			t.Fatalf("compiled = %v, reference = %v on %s with db:\n%s", got, want, formula, d)
		}
	})
}

// fuzzDecoder turns a byte stream into a small database and formula;
// exhausted input yields zero bytes, so every input decodes.
type fuzzDecoder struct {
	data []byte
	pos  int
}

func (z *fuzzDecoder) byte() byte {
	if z.pos >= len(z.data) {
		return 0
	}
	b := z.data[z.pos]
	z.pos++
	return b
}

var fuzzDom = []string{"a", "b", "c", "d"}

func (z *fuzzDecoder) value() string { return fuzzDom[int(z.byte())%len(fuzzDom)] }

func (z *fuzzDecoder) database() *db.Database {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 1, 1)
	n := int(z.byte()) % 8
	for i := 0; i < n; i++ {
		if z.byte()%2 == 0 {
			d.MustInsert(db.F("R", z.value(), z.value()))
		} else {
			d.MustInsert(db.F("S", z.value()))
		}
	}
	return d
}

// sentence decodes a formula and closes it by quantifying every remaining
// free variable existentially.
func (z *fuzzDecoder) sentence() fo.Formula {
	f := z.formula(3, nil)
	free := fo.FreeVars(f)
	if len(free) > 0 {
		vars := make([]string, 0, len(free))
		for v := range free {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		f = fo.NewExists(vars, f)
	}
	return f
}

func (z *fuzzDecoder) term(scope []string) schema.Term {
	b := z.byte()
	if len(scope) > 0 && b%2 == 0 {
		return schema.Var(scope[int(b/2)%len(scope)])
	}
	return schema.Const(fuzzDom[int(b)%len(fuzzDom)])
}

func (z *fuzzDecoder) formula(depth int, scope []string) fo.Formula {
	if depth == 0 || z.pos >= len(z.data) {
		switch z.byte() % 4 {
		case 0:
			return fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{z.term(scope), z.term(scope)}}
		case 1:
			return fo.Atom{Rel: "S", Key: 1, Terms: []schema.Term{z.term(scope)}}
		case 2:
			return fo.Eq{L: z.term(scope), R: z.term(scope)}
		default:
			return fo.Truth(z.byte()%2 == 0)
		}
	}
	switch z.byte() % 8 {
	case 0:
		return fo.Not{F: z.formula(depth-1, scope)}
	case 1:
		return fo.NewAnd(z.formula(depth-1, scope), z.formula(depth-1, scope))
	case 2:
		return fo.NewOr(z.formula(depth-1, scope), z.formula(depth-1, scope))
	case 3:
		return fo.Implies{L: z.formula(depth-1, scope), R: z.formula(depth-1, scope)}
	case 4, 5:
		v := "v" + string(rune('0'+len(scope)))
		return fo.Exists{Vars: []string{v}, Body: z.formula(depth-1, append(scope, v))}
	case 6:
		v := "v" + string(rune('0'+len(scope)))
		return fo.Forall{Vars: []string{v}, Body: z.formula(depth-1, append(scope, v))}
	default:
		// Shadow an existing variable to exercise fresh-slot handling.
		if len(scope) == 0 {
			return z.formula(depth-1, scope)
		}
		v := scope[int(z.byte())%len(scope)]
		return fo.Exists{Vars: []string{v}, Body: z.formula(depth-1, scope)}
	}
}
