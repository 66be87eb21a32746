package fo_test

import (
	"fmt"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/schema"
)

// FuzzParamBind lifts some constants of a fuzzed sentence to parameters
// — plus, sometimes, a parameter the sentence does not mention — and
// checks that the parameterised program, bound once and evaluated with
// random values (known to the database or not, distinct or repeated),
// answers what Compile of the substituted sentence, the reference
// evaluator and the tree walker with the parameters bound answer. Part
// of `make fuzz`.
func FuzzParamBind(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 5, 9, 200, 14, 3, 3, 7, 0, 2, 4, 6, 8, 1})
	f.Add([]byte{7, 255, 1, 0, 42, 17, 6, 6, 6, 80, 80, 13, 2, 91, 0, 0, 0, 0, 5, 4, 3})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &fuzzDecoder{data: data}
		d := fz.database()
		sentence := fz.sentence()
		lift := make(map[string]string)
		var params []string
		for _, c := range fuzzDom {
			if fz.byte()%2 == 0 {
				lift[c] = fmt.Sprintf("$%d", len(params))
				params = append(params, lift[c])
			}
		}
		if fz.byte()%3 == 0 {
			params = append(params, "$unused")
		}
		lifted := mapTerms(sentence, func(t schema.Term) schema.Term {
			if p, ok := lift[t.Name]; ok && !t.IsVar {
				return schema.Var(p)
			}
			return t
		})
		prog, err := fo.Compile(lifted, params)
		if err != nil {
			t.Fatalf("Compile(%s, %v): %v", lifted, params, err)
		}
		ix := d.Interned()
		b := prog.Bind(ix)
		values := append(fuzzDom[:len(fuzzDom):len(fuzzDom)], "e", "f")
		// Two calls on one Bound, so a pooled machine is rebound.
		for call := 0; call < 2; call++ {
			vals := make([]string, len(params))
			env := make(map[string]string, len(params))
			ren := make(map[string]schema.Term, len(params))
			for i, p := range params {
				vals[i] = values[int(fz.byte())%len(values)]
				env[p] = vals[i]
				ren[p] = schema.Const(vals[i])
			}
			instance := fo.Rename(lifted, ren)
			want := fo.EvalReference(d, instance)
			got := map[string]bool{
				"compiled substituted": fo.MustCompile(instance).Bind(ix).Eval(),
				"parameterised":        b.Eval(vals...),
				"bound with values":    prog.Bind(ix, vals...).Eval(vals...),
				"tree walk with env":   fo.EvalWith(d, lifted, env),
			}
			for name, v := range got {
				if v != want {
					t.Fatalf("%s = %v, reference = %v on %s with %v (instance %s), db:\n%s", name, v, want, lifted, vals, instance, d)
				}
			}
		}
	})
}

// A parameter that guards a quantifier is a constant candidate the call
// supplies: the plan summary names it by value, and values the database
// lacks, or holds in another column only, answer like their constants.
func TestParamCandidates(t *testing.T) {
	x, p := schema.Var("x"), schema.Var("p")
	f := fo.Exists{Vars: []string{"x"}, Body: fo.NewAnd(fo.Eq{L: x, R: p}, fo.Exists{Vars: []string{"y"}, Body: fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{x, schema.Var("y")}}})}
	prog, err := fo.Compile(f, []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(prog.PlanSummary("k"), "; "); !strings.Contains(got, `"k"`) {
		t.Errorf("PlanSummary(k) = %s, want the value named", got)
	}
	if got := strings.Join(prog.PlanSummary(), "; "); !strings.Contains(got, `"p"`) {
		t.Errorf("PlanSummary() = %s, want the parameter named", got)
	}
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustInsert(db.F("R", "k", "v"))
	b := prog.Bind(d.Interned())
	for v, want := range map[string]bool{"k": true, "v": false, "absent": false} {
		if got := b.Eval(v); got != want {
			t.Errorf("Eval(%s) = %v, want %v", v, got, want)
		}
	}
	if _, err := fo.Compile(f, nil); err == nil {
		t.Error("Compile accepted a free variable that is no parameter")
	}
	if _, err := fo.Compile(fo.Exists{Vars: []string{"p"}, Body: fo.Eq{L: p, R: p}}, []string{"p"}); err == nil {
		t.Error("Compile accepted a quantified parameter")
	}
}

// mapTerms applies m to every term of f.
func mapTerms(f fo.Formula, m func(schema.Term) schema.Term) fo.Formula {
	switch g := f.(type) {
	case fo.Atom:
		terms := make([]schema.Term, len(g.Terms))
		for i, t := range g.Terms {
			terms[i] = m(t)
		}
		return fo.Atom{Rel: g.Rel, Key: g.Key, Terms: terms}
	case fo.Eq:
		return fo.Eq{L: m(g.L), R: m(g.R)}
	case fo.Not:
		return fo.Not{F: mapTerms(g.F, m)}
	case fo.And:
		fs := make([]fo.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = mapTerms(sub, m)
		}
		return fo.And{Fs: fs}
	case fo.Or:
		fs := make([]fo.Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = mapTerms(sub, m)
		}
		return fo.Or{Fs: fs}
	case fo.Implies:
		return fo.Implies{L: mapTerms(g.L, m), R: mapTerms(g.R, m)}
	case fo.Exists:
		return fo.Exists{Vars: g.Vars, Body: mapTerms(g.Body, m)}
	case fo.Forall:
		return fo.Forall{Vars: g.Vars, Body: mapTerms(g.Body, m)}
	default:
		return f
	}
}
