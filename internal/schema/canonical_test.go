package schema_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/gen"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

func sig(t *testing.T, src string) string {
	t.Helper()
	q, err := parse.Query(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.Signature()
}

// Alpha-equivalent queries — renamed variables, reordered literals — must
// share a signature; structurally different queries must not.
func TestSignatureEquivalence(t *testing.T) {
	same := [][2]string{
		{"R(x | y), !S(y | x)", "R(a | b), !S(b | a)"},
		{"R(x | y), !S(y | x)", "!S(b | a), R(a | b)"},
		{"R(x | y, 'c')", "R(u | w, 'c')"},
		{"P(x | y), Q(y | z)", "Q(b | c), P(a | b)"},
	}
	for _, pair := range same {
		if sig(t, pair[0]) != sig(t, pair[1]) {
			t.Errorf("signatures differ for alpha-equivalent %q and %q", pair[0], pair[1])
		}
	}
	distinct := [][2]string{
		{"R(x | y)", "R(x, y)"},                       // different key
		{"R(x | y)", "R(x | x)"},                      // variable pattern
		{"R(x | y), !S(y | x)", "R(x | y), S(y | x)"}, // polarity
		{"R(x | 'c')", "R(x | 'd')"},                  // constants verbatim
		{"R(x | y)", "T(x | y)"},                      // relation name
		{"R(x | y), S(x | y)", "R(x | y), S(y | x)"},  // join pattern
	}
	for _, pair := range distinct {
		if sig(t, pair[0]) == sig(t, pair[1]) {
			t.Errorf("signatures collide for distinct %q and %q", pair[0], pair[1])
		}
	}
}

// A signature is stable across parse → print → parse round trips and
// across random literal shuffles with fresh variable names.
func TestSignatureStableUnderRenamingAndShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	queries := []string{
		"R(x | y), !S(y | x)",
		"Lives(p | t), !Born(p | t), !Likes(p, t)",
		"P0(x, y | z), P1(z | x), !N0(x | y), !N1(z | z)",
	}
	fresh := []string{"m", "n", "o", "p", "q", "r"}
	for _, src := range queries {
		q := parse.MustQuery(src)
		want := q.Signature()
		for trial := 0; trial < 20; trial++ {
			// Rename variables with a random bijection.
			vars := q.Vars().Sorted()
			perm := rng.Perm(len(fresh))
			sub := make(map[string]schema.Term, len(vars))
			for i, v := range vars {
				sub[v] = schema.Var(fresh[perm[i]])
			}
			renamed := q.Substitute(sub)
			// Shuffle the literals.
			lits := append([]schema.Literal(nil), renamed.Lits...)
			rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
			shuffled := schema.NewQuery(lits...)
			if got := shuffled.Signature(); got != want {
				t.Fatalf("%s: signature changed under renaming+shuffle (trial %d)", src, trial)
			}
		}
	}
}

// A query's shape is invariant under literal shuffles, variable
// renamings and injective constant renamings — the parameter values
// follow the renaming slot by slot — while merging two distinct
// constants changes the equality pattern and with it the shape.
func TestShapeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	opts := gen.DefaultQueryOptions()
	opts.ConstProb = 0.4
	merged := 0
	for trial := 0; trial < 500; trial++ {
		q := gen.Query(rng, opts)
		key, vals := q.Shape()

		varTo := make(map[string]schema.Term)
		for i, v := range q.Vars().Sorted() {
			varTo[v] = schema.Var(fmt.Sprintf("u%d", rng.Intn(1000)*16+i))
		}
		constTo := make(map[string]string)
		for i, v := range vals {
			constTo[v] = fmt.Sprintf("k%d_%d", rng.Intn(1000), i)
		}
		lits := make([]schema.Literal, len(q.Lits))
		for i, l := range q.Lits {
			terms := make([]schema.Term, len(l.Atom.Terms))
			for j, t := range l.Atom.Terms {
				if t.IsVar {
					terms[j] = varTo[t.Name]
				} else {
					terms[j] = schema.Const(constTo[t.Name])
				}
			}
			lits[i] = schema.Literal{Neg: l.Neg, Atom: schema.NewAtom(l.Atom.Rel, l.Atom.Key, terms...)}
		}
		rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
		renamed := schema.NewQuery(lits...)
		gotKey, gotVals := renamed.Shape()
		if gotKey != key || len(gotVals) != len(vals) {
			t.Fatalf("%s and its renaming %s differ in shape", q, renamed)
		}
		for i, v := range vals {
			if gotVals[i] != constTo[v] {
				t.Fatalf("%s → %s: slot %d holds %q, want %q", q, renamed, i, gotVals[i], constTo[v])
			}
		}
		if len(vals) > 0 && renamed.Signature() == q.Signature() {
			t.Fatalf("%s and %s: signatures equal though their constants differ", q, renamed)
		}

		if len(vals) < 2 {
			continue
		}
		merged++
		into := map[string]string{vals[1]: vals[0]}
		mergedQ := q.Clone()
		for _, l := range mergedQ.Lits {
			for j, t := range l.Atom.Terms {
				if to, ok := into[t.Name]; ok && !t.IsVar {
					l.Atom.Terms[j] = schema.Const(to)
				}
			}
		}
		if k, _ := mergedQ.Shape(); k == key {
			t.Fatalf("merging %q into %q kept the shape of %s", vals[1], vals[0], q)
		}
	}
	if merged == 0 {
		t.Fatal("no query had two constants to merge")
	}
}

// Past a handful of distinct constants the walk indexes them; slots
// still number constants by first occurrence and a repeat reuses its
// slot.
func TestShapeManyConstants(t *testing.T) {
	terms := []schema.Term{schema.Var("x")}
	for i := 0; i < 12; i++ {
		terms = append(terms, schema.Const(fmt.Sprintf("c%d", i)))
	}
	terms = append(terms, schema.Const("c3"), schema.Const("c11"))
	q := schema.NewQuery(schema.Pos(schema.NewAtom("R", 1, terms...)))
	key, vals := q.Shape()
	if len(vals) != 12 || vals[3] != "c3" || vals[11] != "c11" {
		t.Fatalf("values %v", vals)
	}
	shape, params, _, _ := q.Lift()
	got := shape.Lits[0].Atom.Terms
	if got[13] != schema.Var(params[3]) || got[14] != schema.Var(params[11]) {
		t.Fatalf("repeated constants lifted to %v", got[13:])
	}
	other := q.Clone()
	other.Lits[0].Atom.Terms[13] = schema.Const("c4")
	if k, _ := other.Shape(); k == key {
		t.Fatal("a changed repeat kept the shape")
	}
}
