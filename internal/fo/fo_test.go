package fo_test

import (
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/schema"
)

var (
	x = schema.Var("x")
	y = schema.Var("y")
	z = schema.Var("z")
	a = schema.Const("a")
	b = schema.Const("b")
)

func atomR(terms ...schema.Term) fo.Atom { return fo.Atom{Rel: "R", Key: 1, Terms: terms} }
func atomS(terms ...schema.Term) fo.Atom { return fo.Atom{Rel: "S", Key: 1, Terms: terms} }

func testDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 1, 1)
	d.MustInsert(db.F("R", "a", "b"))
	d.MustInsert(db.F("R", "a", "c"))
	d.MustInsert(db.F("R", "d", "b"))
	d.MustInsert(db.F("S", "a"))
	return d
}

func TestEvalGroundAtom(t *testing.T) {
	d := testDB(t)
	if !fo.Eval(d, atomR(a, b)) {
		t.Error("R(a,b) should hold")
	}
	if fo.Eval(d, atomR(b, a)) {
		t.Error("R(b,a) should not hold")
	}
	if fo.Eval(d, fo.Atom{Rel: "Unknown", Key: 1, Terms: []schema.Term{a}}) {
		t.Error("atom over unknown relation should be false")
	}
}

func TestEvalExists(t *testing.T) {
	d := testDB(t)
	// ∃x R(x, 'b')
	f := fo.NewExists([]string{"x"}, atomR(x, b))
	if !fo.Eval(d, f) {
		t.Error("∃x R(x,b) should hold")
	}
	// ∃x R(x, 'z')
	f = fo.NewExists([]string{"x"}, atomR(x, schema.Const("zz")))
	if fo.Eval(d, f) {
		t.Error("∃x R(x,zz) should not hold")
	}
	// ∃x∃y R(x, y) ∧ S(x)
	f = fo.NewExists([]string{"x", "y"}, fo.NewAnd(atomR(x, y), atomS(x)))
	if !fo.Eval(d, f) {
		t.Error("join should hold (x=a)")
	}
}

func TestEvalForall(t *testing.T) {
	d := testDB(t)
	// ∀x∀y (R(x,y) → ∃z R(x,z)) — trivially true.
	f := fo.NewForall([]string{"x", "y"},
		fo.Implies{L: atomR(x, y), R: fo.NewExists([]string{"z"}, atomR(x, z))})
	if !fo.Eval(d, f) {
		t.Error("trivial ∀ should hold")
	}
	// ∀x (S(x) → R(x, 'b')): S = {a}, R(a,b) holds.
	f = fo.NewForall([]string{"x"}, fo.Implies{L: atomS(x), R: atomR(x, b)})
	if !fo.Eval(d, f) {
		t.Error("∀x(S(x)→R(x,b)) should hold")
	}
	// ∀x (R(x,'b') → S(x)): R(d,b) holds but S(d) does not.
	f = fo.NewForall([]string{"x"}, fo.Implies{L: atomR(x, b), R: atomS(x)})
	if fo.Eval(d, f) {
		t.Error("∀x(R(x,b)→S(x)) should fail at x=d")
	}
}

func TestEvalEqNeq(t *testing.T) {
	d := testDB(t)
	// ∃x (S(x) ∧ x = 'a')
	f := fo.NewExists([]string{"x"}, fo.NewAnd(atomS(x), fo.Eq{L: x, R: a}))
	if !fo.Eval(d, f) {
		t.Error("equality restriction failed")
	}
	// ∃x (S(x) ∧ x ≠ 'a') — S = {a} only.
	f = fo.NewExists([]string{"x"}, fo.NewAnd(atomS(x), fo.Neq(x, a)))
	if fo.Eval(d, f) {
		t.Error("x ≠ a should eliminate the only S value")
	}
}

func TestEvalOrAndTruth(t *testing.T) {
	d := testDB(t)
	f := fo.NewOr(fo.Truth(false), atomR(a, b))
	if !fo.Eval(d, f) {
		t.Error("Or with true disjunct failed")
	}
	if !fo.Eval(d, fo.Truth(true)) || fo.Eval(d, fo.Truth(false)) {
		t.Error("Truth mis-evaluated")
	}
	if fo.Eval(d, fo.And{}) != true {
		t.Error("empty And should be true")
	}
	if fo.Eval(d, fo.Or{}) != false {
		t.Error("empty Or should be false")
	}
}

// Quantifier over a variable only occurring under negation must fall back
// to the active domain and stay correct.
func TestEvalUnrestrictedQuantifier(t *testing.T) {
	d := testDB(t)
	// ∃x ¬S(x): domain has values not in S (e.g. 'b').
	f := fo.NewExists([]string{"x"}, fo.Not{F: atomS(x)})
	if !fo.Eval(d, f) {
		t.Error("∃x ¬S(x) should hold")
	}
	// ∀x S(x): false, domain is larger than S.
	f = fo.NewForall([]string{"x"}, atomS(x))
	if fo.Eval(d, f) {
		t.Error("∀x S(x) should fail")
	}
}

// Formula constants outside the database participate in the active domain.
func TestEvalFormulaConstantInDomain(t *testing.T) {
	d := testDB(t)
	// ∃x (x = 'q' ∧ ¬S(x)): 'q' is not a database constant.
	f := fo.NewExists([]string{"x"}, fo.NewAnd(fo.Eq{L: x, R: schema.Const("q")}, fo.Not{F: atomS(x)}))
	if !fo.Eval(d, f) {
		t.Error("formula constant should be in the evaluation domain")
	}
}

func TestEvalEmptyDatabase(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	// ∃x∃y R(x,y) over empty db: false.
	if fo.Eval(d, fo.NewExists([]string{"x", "y"}, atomR(x, y))) {
		t.Error("∃ over empty database should be false")
	}
	// ∀x∀y R(x,y): vacuously true over the empty domain.
	if !fo.Eval(d, fo.NewForall([]string{"x", "y"}, atomR(x, y))) {
		t.Error("∀ over empty domain should be vacuously true")
	}
}

func TestEvalPanicsOnFreeVariable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval on an open formula should panic")
		}
	}()
	fo.Eval(testDB(t), atomR(x, y))
}

func TestFreeVars(t *testing.T) {
	f := fo.NewExists([]string{"x"}, fo.NewAnd(atomR(x, y), fo.Eq{L: z, R: a}))
	free := fo.FreeVars(f)
	if !free.Equal(schema.NewVarSet("y", "z")) {
		t.Errorf("free vars = %v", free)
	}
	// Shadowing: ∃x R(x,y) ∧ x free outside... Exists(x, Exists(x, ...)).
	g := fo.Exists{Vars: []string{"x"}, Body: fo.Exists{Vars: []string{"x"}, Body: atomR(x, x)}}
	if !fo.FreeVars(g).Empty() {
		t.Errorf("shadowed vars leaked: %v", fo.FreeVars(g))
	}
}

func TestConstants(t *testing.T) {
	f := fo.NewAnd(atomR(a, x), fo.Eq{L: x, R: b})
	consts := fo.Constants(f)
	if !consts["a"] || !consts["b"] || len(consts) != 2 {
		t.Errorf("constants = %v", consts)
	}
}

func TestSimplify(t *testing.T) {
	cases := []struct {
		in   fo.Formula
		want string
	}{
		{fo.NewAnd(fo.Truth(true), atomS(a)), "S('a')"},
		{fo.NewAnd(fo.Truth(false), atomS(a)), "false"},
		{fo.NewOr(fo.Truth(true), atomS(a)), "true"},
		{fo.Not{F: fo.Not{F: atomS(a)}}, "S('a')"},
		{fo.Implies{L: fo.Truth(true), R: atomS(a)}, "S('a')"},
		{fo.Implies{L: atomS(a), R: fo.Truth(false)}, "¬S('a')"},
		{fo.Forall{Vars: []string{"x"}, Body: fo.Truth(true)}, "true"},
		{fo.Exists{Vars: []string{"x"}, Body: fo.Truth(false)}, "false"},
		{fo.Exists{Vars: []string{"x"}, Body: fo.Exists{Vars: []string{"y"}, Body: atomR(x, y)}}, "∃x∃y(R(x, y))"},
	}
	for _, c := range cases {
		if got := fo.Simplify(c.in).String(); got != c.want {
			t.Errorf("Simplify(%s) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Simplification preserves evaluation on a concrete database.
func TestSimplifyPreservesSemantics(t *testing.T) {
	d := testDB(t)
	formulas := []fo.Formula{
		fo.NewForall([]string{"x"}, fo.Implies{L: atomS(x), R: fo.NewAnd(fo.Truth(true), atomR(x, b))}),
		fo.NewExists([]string{"x"}, fo.NewOr(fo.Truth(false), atomS(x))),
		fo.Not{F: fo.Not{F: fo.NewExists([]string{"x"}, atomS(x))}},
	}
	for _, f := range formulas {
		if fo.Eval(d, f) != fo.Eval(d, fo.Simplify(f)) {
			t.Errorf("Simplify changed semantics of %s", f)
		}
	}
}

func TestStringRendering(t *testing.T) {
	f := fo.NewForall([]string{"z"},
		fo.Implies{L: fo.Atom{Rel: "N", Key: 1, Terms: []schema.Term{schema.Const("c"), z}},
			R: fo.NewExists([]string{"x"}, fo.NewAnd(atomS(x), fo.Neq(x, z)))})
	s := f.String()
	for _, frag := range []string{"∀z", "N('c', z)", "→", "∃x", "x ≠ z"} {
		if !strings.Contains(s, frag) {
			t.Errorf("render %q lacks %q", s, frag)
		}
	}
}

func TestSize(t *testing.T) {
	f := fo.NewAnd(atomS(a), fo.Not{F: atomS(b)})
	if got := fo.Size(f); got != 4 { // And + Atom + Not + Atom
		t.Errorf("Size = %d, want 4", got)
	}
}

func TestNewConstructors(t *testing.T) {
	// NewAnd flattens.
	f := fo.NewAnd(fo.NewAnd(atomS(a), atomS(b)), atomS(a))
	if and, ok := f.(fo.And); !ok || len(and.Fs) != 3 {
		t.Errorf("NewAnd did not flatten: %v", f)
	}
	// Single-element And collapses.
	if _, ok := fo.NewAnd(atomS(a)).(fo.Atom); !ok {
		t.Error("singleton And should collapse")
	}
	// NewExists with no vars returns the body.
	if _, ok := fo.NewExists(nil, atomS(a)).(fo.Atom); !ok {
		t.Error("empty Exists should collapse")
	}
}

// Variable shadowing across nested quantifiers of the same name.
func TestEvalShadowing(t *testing.T) {
	d := testDB(t)
	// ∃x (S(x) ∧ ∃x R(x, 'b') ∧ S(x)): inner x independent; outer x = a.
	f := fo.NewExists([]string{"x"},
		fo.NewAnd(atomS(x),
			fo.Exists{Vars: []string{"x"}, Body: atomR(x, b)},
			atomS(x)))
	if !fo.Eval(d, f) {
		t.Error("shadowed evaluation failed")
	}
}
