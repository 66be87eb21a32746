package fo_test

import (
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
)

// The compiled pipeline agrees with the unoptimized reference on random
// closed formulas — this is the correctness argument for the slot
// compiler and the compile-time candidate-restriction analysis.
func TestCompiledAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(316))
	for trial := 0; trial < 400; trial++ {
		f := randFormula(rng, 1+rng.Intn(3), nil)
		if !fo.FreeVars(f).Empty() {
			continue
		}
		d := randSmallDB(rng)
		want := fo.EvalReference(d, f)
		b := fo.MustCompile(f).Bind(d.Interned())
		if got := b.Eval(); got != want {
			t.Fatalf("compiled = %v, reference = %v on %s with db:\n%s", got, want, f, d)
		}
	}
}

// The compiled pipeline agrees on real rewritings over generated
// databases, and the Bound is reusable across evaluations.
func TestCompiledAgreesOnRewritings(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	opts := gen.DefaultQueryOptions()
	dbOpts := gen.DefaultDBOptions()
	tested := 0
	for tested < 25 {
		q := gen.Query(rng, opts)
		f, err := rewrite.Rewrite(q)
		if err != nil {
			continue
		}
		tested++
		d := gen.Database(rng, q, dbOpts)
		want := fo.EvalReference(d, f)
		p, err := fo.Compile(f, nil)
		if err != nil {
			t.Fatalf("Compile(%s, nil): %v", f, err)
		}
		b := p.Bind(d.Interned())
		for i := 0; i < 3; i++ {
			if got := b.Eval(); got != want {
				t.Fatalf("compiled = %v, reference = %v on rewriting of %s\n%s", got, want, q, d)
			}
		}
	}
}

// TestCompiledDifferential checks the compiled pipeline against the
// unoptimized reference on the shape of the paper's rewritings: every
// quantifier guarded by an atom whose key is bound outside it, with
// guarded quantifiers nested in its body, over databases with
// multi-fact blocks. An outer guard whose variable occurs under a nested
// quantifier stays scalar and walks its block while the nested
// quantifiers reuse the machine's scratch, which is what this test
// exists to exercise; it fails unless a fair share of the programs name
// a block driver in PlanSummary.
func TestCompiledDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	driven := 0
	const trials = 600
	for trial := 0; trial < trials; trial++ {
		f := randGuarded(rng, 1+rng.Intn(3), nil)
		d := randBlockDB(rng)
		want := fo.EvalReference(d, f)
		p := fo.MustCompile(f)
		if strings.Contains(strings.Join(p.PlanSummary(), "; "), "(block ") {
			driven++
		}
		b := p.Bind(d.Interned())
		for call := 1; call <= 2; call++ {
			if got := b.Eval(); got != want {
				t.Fatalf("call %d: compiled = %v, reference = %v on %s\nplan %v\ndb:\n%s",
					call, got, want, f, p.PlanSummary(), d)
			}
		}
	}
	if driven < trials/2 {
		t.Fatalf("only %d of %d programs have a block driver", driven, trials)
	}
}

// randGuarded draws a closed formula whose quantifiers are guarded: ∀v
// (G → φ), ∀v (¬G ∨ φ), ∃v (G ∧ φ), with G = R(k | v) or T(k | v, t) and
// k, t terms of the enclosing scope or constants. The key is the
// innermost enclosing variable half of the time, so nested guards
// depend on their parent's variable.
func randGuarded(rng *rand.Rand, depth int, scope []string) fo.Formula {
	term := func() schema.Term {
		if len(scope) > 0 && rng.Intn(4) != 0 {
			return schema.Var(scope[rng.Intn(len(scope))])
		}
		return schema.Const([]string{"a", "b", "c", "d"}[rng.Intn(4)])
	}
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{term(), term()}}
		case 1:
			return fo.Atom{Rel: "T", Key: 1, Terms: []schema.Term{term(), term(), term()}}
		case 2:
			return fo.Atom{Rel: "S", Key: 1, Terms: []schema.Term{term()}}
		default:
			return fo.Eq{L: term(), R: term()}
		}
	}
	key := term()
	if len(scope) > 0 && rng.Intn(2) == 0 {
		key = schema.Var(scope[len(scope)-1])
	}
	other := term()
	v := newVar(scope)
	inner := append(scope[:len(scope):len(scope)], v)
	x := schema.Var(v)
	guard := fo.Formula(fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{key, x}})
	if rng.Intn(2) == 0 {
		guard = fo.Atom{Rel: "T", Key: 1, Terms: []schema.Term{key, x, other}}
	}
	nested, leaf := randGuarded(rng, depth-1, inner), randGuarded(rng, 0, inner)
	var body fo.Formula
	switch rng.Intn(4) {
	case 0:
		body = fo.NewAnd(nested, leaf)
	case 1:
		body = fo.NewOr(nested, leaf)
	case 2:
		body = fo.Not{F: nested}
	default:
		body = fo.Implies{L: leaf, R: nested}
	}
	switch rng.Intn(3) {
	case 0:
		return fo.Forall{Vars: []string{v}, Body: fo.Implies{L: guard, R: body}}
	case 1:
		return fo.Forall{Vars: []string{v}, Body: fo.NewOr(fo.Not{F: guard}, body)}
	default:
		return fo.Exists{Vars: []string{v}, Body: fo.NewAnd(guard, body)}
	}
}

// randBlockDB fills R(k | v), S(k) and T(k | v, w) over {a, b, c}, so
// that blocks of one to three facts are common.
func randBlockDB(rng *rand.Rand) *db.Database {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 1, 1)
	d.MustDeclare("T", 3, 1)
	dom := []string{"a", "b", "c"}
	v := func() string { return dom[rng.Intn(len(dom))] }
	for i := 0; i < 6; i++ {
		d.MustInsert(db.F("R", v(), v()))
		d.MustInsert(db.F("T", v(), v(), v()))
		if rng.Intn(3) == 0 {
			d.MustInsert(db.F("S", v()))
		}
	}
	return d
}

// Compile rejects formulas with free variables.
func TestCompileRejectsFreeVariables(t *testing.T) {
	f := fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{schema.Var("x"), schema.Const("a")}}
	if _, err := fo.Compile(f, nil); err == nil {
		t.Fatal("Compile accepted a formula with free variable x")
	}
}

// Atoms over relations the database does not declare are false, and
// quantifiers restricted by them range over the empty list — no clone or
// declaration is needed.
func TestCompiledMissingRelation(t *testing.T) {
	d := db.New()
	d.MustDeclare("S", 1, 1)
	d.MustInsert(db.F("S", "a"))
	// ∃x (R(x,x)) over undeclared R: false.
	f := fo.Exists{Vars: []string{"x"}, Body: fo.Atom{Rel: "R", Key: 1,
		Terms: []schema.Term{schema.Var("x"), schema.Var("x")}}}
	if fo.MustCompile(f).Bind(d.Interned()).Eval() {
		t.Fatal("atom over undeclared relation evaluated to true")
	}
	// ¬∃x R(x,x): true.
	if !fo.MustCompile(fo.Not{F: f}).Bind(d.Interned()).Eval() {
		t.Fatal("negated atom over undeclared relation evaluated to false")
	}
}

// Formula constants outside the database participate in equality and
// quantification via synthetic ids: ∃x (x = c ∧ ¬S(x)) must be true when
// c does not occur in the database.
func TestCompiledConstantsOutsideDatabase(t *testing.T) {
	d := db.New()
	d.MustDeclare("S", 1, 1)
	d.MustInsert(db.F("S", "a"))
	c := schema.Const("zzz-not-in-db")
	f := fo.Exists{Vars: []string{"x"}, Body: fo.NewAnd(
		fo.Eq{L: schema.Var("x"), R: c},
		fo.Not{F: fo.Atom{Rel: "S", Key: 1, Terms: []schema.Term{schema.Var("x")}}},
	)}
	if want := fo.EvalReference(d, f); !want {
		t.Fatal("reference: expected true")
	}
	if !fo.MustCompile(f).Bind(d.Interned()).Eval() {
		t.Fatal("compiled: synthetic constant lost in quantification")
	}
	// Two distinct unseen constants must stay distinct, the same one equal.
	g := fo.Exists{Vars: []string{"x"}, Body: fo.NewAnd(
		fo.Eq{L: schema.Var("x"), R: schema.Const("u1")},
		fo.Eq{L: schema.Var("x"), R: schema.Const("u2")},
	)}
	if fo.MustCompile(g).Bind(d.Interned()).Eval() != fo.EvalReference(d, g) {
		t.Fatal("distinct unseen constants compared equal")
	}
}

// Inner quantifiers shadowing an outer variable of the same name get
// their own slot; the outer binding is untouched.
func TestCompiledShadowing(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustInsert(db.F("R", "a", "b"))
	// ∃x (R(x,·) ∧ ∃x S-free: x = b) — inner x shadows outer.
	f := fo.Exists{Vars: []string{"x"}, Body: fo.NewAnd(
		fo.Exists{Vars: []string{"y"}, Body: fo.Atom{Rel: "R", Key: 1,
			Terms: []schema.Term{schema.Var("x"), schema.Var("y")}}},
		fo.Exists{Vars: []string{"x"}, Body: fo.Eq{L: schema.Var("x"), R: schema.Const("b")}},
		fo.Eq{L: schema.Var("x"), R: schema.Const("a")},
	)}
	if want, got := fo.EvalReference(d, f), fo.MustCompile(f).Bind(d.Interned()).Eval(); got != want {
		t.Fatalf("shadowing: compiled = %v, reference = %v", got, want)
	}
}

// InternNext reuses the indexes of relations shared between COW
// snapshots and stays correct on the rebuilt ones.
func TestCompiledInternNextCOW(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 1, 1)
	d.MustInsert(db.F("R", "a", "b"))
	d.MustInsert(db.F("S", "a"))
	ix1 := d.Interned()

	next := d.CloneCOW("S")
	next.MustInsert(db.F("S", "zzz"))
	ix2 := db.InternNext(ix1, next)
	next.SeedInterned(ix2)

	if ix2.Relation("R") != ix1.Relation("R") {
		t.Fatal("untouched relation index was rebuilt instead of reused")
	}
	if ix2.Relation("S") == ix1.Relation("S") {
		t.Fatal("touched relation index was reused")
	}
	// Ids are stable across the chain: "a" has the same id in both views.
	id1, ok1 := ix1.ID("a")
	id2, ok2 := ix2.ID("a")
	if !ok1 || !ok2 || id1 != id2 {
		t.Fatalf("id of shared constant drifted: %d/%v vs %d/%v", id1, ok1, id2, ok2)
	}
	// And the evaluation on the new snapshot sees the new fact.
	f := fo.Exists{Vars: []string{"x"}, Body: fo.NewAnd(
		fo.Atom{Rel: "S", Key: 1, Terms: []schema.Term{schema.Var("x")}},
		fo.Eq{L: schema.Var("x"), R: schema.Const("zzz")},
	)}
	p := fo.MustCompile(f)
	if p.Bind(ix1).Eval() {
		t.Fatal("old snapshot sees the new fact")
	}
	if !p.Bind(ix2).Eval() {
		t.Fatal("new snapshot misses the new fact")
	}
}

// A Need the database fails answers Eval without running the program —
// shown here with a Need the sentence does not even depend on. A Need
// the database meets changes nothing.
func TestNeedShortCircuitsBoundProgram(t *testing.T) {
	f := fo.Exists{Vars: []string{"x", "y"}, Body: fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{schema.Var("x"), schema.Var("y")}}}
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustInsert(db.F("R", "k", "v"))
	ix := d.Interned()

	for _, tc := range []struct {
		name string
		need fo.Need
		met  bool
	}{
		{"value in its column", fo.Need{Rel: "R", Col: 1, Term: schema.Const("v")}, true},
		{"value in another column only", fo.Need{Rel: "R", Col: 1, Term: schema.Const("k")}, false},
		{"value nowhere", fo.Need{Rel: "R", Col: 0, Term: schema.Const("zz")}, false},
		{"relation absent", fo.Need{Rel: "S", Col: 0, Term: schema.Const("k")}, false},
		{"column out of range", fo.Need{Rel: "R", Col: 2, Term: schema.Const("k")}, false},
	} {
		p, err := fo.Compile(f, nil, tc.need)
		if err != nil {
			t.Fatal(err)
		}
		b := p.Bind(ix)
		if got := b.Eval(); got != tc.met {
			t.Errorf("%s: Eval = %v, want %v", tc.name, got, tc.met)
		}
	}

	// ∃y R('k', y) lowers at the root: an unmet Need skips the vectorized
	// tree.
	g := fo.Exists{Vars: []string{"y"}, Body: fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{schema.Const("k"), schema.Var("y")}}}
	p, err := fo.Compile(g, nil, fo.Need{Rel: "R", Col: 1, Term: schema.Const("zz")})
	if err != nil {
		t.Fatal(err)
	}
	if p.VecQuants() == 0 {
		t.Fatal("∃y R('k', y) lowered no quantifier")
	}
	b := p.Bind(ix)
	if b.Eval() {
		t.Error("lowered program with an unmet Need: Eval = true")
	}
}
