package fo_test

import (
	"testing"

	"cqa/internal/fo"
)

// FuzzBitmapEval decodes a small database and a closed formula from the
// fuzz input (same decoder as FuzzCompiledEval) and checks that the
// compiled program, vectorized where a quantifier lowers, agrees with the
// unoptimized reference on every call to one Bound: the second call reuses
// the pooled machine and the hole indexes the first one built.
// Part of `make fuzz`.
func FuzzBitmapEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 5, 9, 200, 14, 3, 3, 7})
	f.Add([]byte{7, 255, 1, 0, 42, 17, 6, 6, 6, 80, 80, 13, 2, 91})
	f.Add([]byte{4, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
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
		for call := 1; call <= 2; call++ {
			if got := b.Eval(); got != want {
				t.Fatalf("compiled-bitmap call %d = %v, reference = %v on %s (vec quants %d) with db:\n%s",
					call, got, want, formula, p.VecQuants(), d)
			}
		}
	})
}
