package core_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
)

// q1 with x free becomes FO: the attack graph of the frozen query is
// acyclic, so RewriteFree succeeds where Rewrite fails.
func TestRewriteFreeChangesClassification(t *testing.T) {
	q := parse.MustQuery("R(x | y), !S(y | x)")
	if _, err := rewrite.Rewrite(q); err == nil {
		t.Fatal("Boolean q1 must have no rewriting")
	}
	f, err := rewrite.RewriteFree(q, []string{"x"})
	if err != nil {
		t.Fatalf("q1(x) should be FO: %v", err)
	}
	if free := fo.FreeVars(f); !free.Equal(schema.NewVarSet("x")) {
		t.Fatalf("free vars of rewriting = %v, want {x}", free)
	}
}

func TestRewriteFreeErrors(t *testing.T) {
	q := parse.MustQuery("R(x | y)")
	if _, err := rewrite.RewriteFree(q, []string{"z"}); err == nil {
		t.Error("unknown free variable should fail")
	}
	if _, err := rewrite.RewriteFree(q, []string{"x", "x"}); err == nil {
		t.Error("duplicate free variable should fail")
	}
}

func TestCertainAnswersBasic(t *testing.T) {
	// Girls-boys: which girls g make q1[x↦g] certain? g is certain iff
	// in every repair some R(g, b) has no S(b, g): i.e. the girl cannot
	// be "mutually matched" in some repair.
	d := parse.MustDatabase(`
		R(Alice | Bob)
		R(Alice | George)
		R(Maria | John)
		S(Bob | Alice)
	`)
	q := parse.MustQuery("R(x | y), !S(y | x)")
	got, err := core.CertainAnswers(q, []string{"x"}, d)
	if err != nil {
		t.Fatal(err)
	}
	// Maria: only fact R(Maria|John), S(John|Maria) absent → certain.
	// Alice: repair may choose R(Alice|Bob) with S(Bob|Alice) present →
	// that repair falsifies → not certain.
	want := []core.Answer{{"Maria"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answers = %v, want %v", got, want)
	}
}

func TestCertainAnswersTwoFreeVars(t *testing.T) {
	d := parse.MustDatabase(`
		Lives(ann | mons)
		Lives(bob | mons)
		Lives(bob | ghent)
		Born(ann | mons)
	`)
	q := parse.MustQuery("Lives(p | t), !Born(p | t)")
	got, err := core.CertainAnswers(q, []string{"p", "t"}, d)
	if err != nil {
		t.Fatal(err)
	}
	// ann lives in mons in the unique Lives(ann|·) choice but Born(ann|mons)
	// blocks it. bob: two Lives choices → no (bob, t) certain.
	if len(got) != 0 {
		t.Fatalf("answers = %v, want none", got)
	}
	d2 := parse.MustDatabase(`
		Lives(ann | mons)
		Born(ann | ghent)
	`)
	if err := parse.DeclareQueryRelations(d2, q); err != nil {
		t.Fatal(err)
	}
	got2, err := core.CertainAnswers(q, []string{"p", "t"}, d2)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Answer{{"ann", "mons"}}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("answers = %v, want %v", got2, want)
	}
}

func TestCertainAnswersErrors(t *testing.T) {
	q := parse.MustQuery("R(x | y)")
	if _, err := core.CertainAnswers(q, nil, db.New()); err == nil {
		t.Error("no free variables should fail")
	}
	if _, err := core.CertainAnswers(q, []string{"nope"}, db.New()); err == nil {
		t.Error("unknown free variable should fail")
	}
	d := parse.MustDatabase("R(a | 1)\nR(b | 2)")
	if got, err := core.CertainAnswers(q, []string{"x", "x"}, d); err == nil {
		t.Errorf("duplicate free variable should fail, got %v", got)
	}
}

// Property: CertainAnswers equals the brute-force definition on random
// queries and databases, whether or not the frozen query is FO, with one
// or two free variables; on databases whose values coincide with the
// query's constants (so distinct parameter slots take equal values) or
// that never declare one of the negated relations; and on cyclic frozen
// shapes. A frozen free variable is a constant, which the planner's
// matching and reachability patterns (all-variable atoms) never match,
// so the cyclic shapes reach the planner and then its search over block
// choices.
func TestCertainAnswersAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	opts := gen.DefaultQueryOptions()
	dbOpts := gen.DefaultDBOptions()
	constOpts := opts
	constOpts.ConstProb = 0.4
	for trial := 0; trial < 150; trial++ {
		q := gen.Query(rng, opts)
		if trial%3 == 1 {
			q = gen.Query(rng, constOpts)
		}
		vars := q.PositiveVars().Sorted()
		if len(vars) == 0 {
			continue
		}
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		free := vars[:1+rng.Intn(min(2, len(vars)))]
		d := gen.Database(rng, q, dbOpts)
		switch trial % 3 {
		case 1:
			if _, consts := q.Shape(); len(consts) > 0 {
				d = rebuild(d, "", consts[0])
			}
		case 2:
			if neg := q.Negated(); len(neg) > 0 {
				d = rebuild(d, neg[0].Rel, "")
			}
		}
		checkAnswers(t, q, free, d)
	}
	for _, c := range []struct {
		q    string
		free []string
	}{
		{"R(x | y), !S(y | x), T(x, z)", []string{"z"}},
		{"R(x | y), !S(y | x), T(z | w)", []string{"z", "w"}},
		{"R(x | y), !S(y | x), T(z | w), !U(w | z)", []string{"x"}},
		{"E(x, y), !B(x | y), !C(y | x), T(x, z)", []string{"z"}},
	} {
		q := parse.MustQuery(c.q)
		for seed := int64(0); seed < 4; seed++ {
			d := gen.Database(rand.New(rand.NewSource(seed)), q, dbOpts)
			checkAnswers(t, q, c.free, d)
		}
	}
}

// checkAnswers compares CertainAnswers(q, free, d) with naive.IsCertain
// of q[free ↦ c⃗] for every tuple c⃗ over d's active domain.
func checkAnswers(t *testing.T, q schema.Query, free []string, d *db.Database) {
	t.Helper()
	got, err := core.CertainAnswers(q, free, d)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	gotSet := make(map[string]bool, len(got))
	for _, a := range got {
		gotSet[strings.Join(a, "\x00")] = true
	}
	dom := d.ActiveDomain()
	tuple := make([]string, len(free))
	sub := make(map[string]schema.Term, len(free))
	var walk func(i int)
	walk = func(i int) {
		if i == len(free) {
			want := naive.IsCertain(q.Substitute(sub), d)
			if got := gotSet[strings.Join(tuple, "\x00")]; got != want {
				t.Fatalf("%s, %v↦%v: CertainAnswers=%v, naive=%v\n%s", q, free, tuple, got, want, d)
			}
			return
		}
		for _, c := range dom {
			tuple[i], sub[free[i]] = c, schema.Const(c)
			walk(i + 1)
		}
	}
	walk(0)
}

// rebuild copies d without the relation skip; a non-empty c renames
// every value ending in ·0 to c, so values of different variables and a
// constant of the query coincide.
func rebuild(d *db.Database, skip, c string) *db.Database {
	out := db.New()
	for _, name := range d.RelationNames() {
		if name == skip {
			continue
		}
		r := d.Relation(name)
		out.MustDeclare(name, r.Arity, r.Key)
		for _, f := range d.Facts(name) {
			args := append([]string(nil), f.Args...)
			for i, v := range args {
				if c != "" && strings.HasSuffix(v, "·0") {
					args[i] = c
				}
			}
			out.MustInsert(db.Fact{Rel: name, Args: args})
		}
	}
	return out
}
