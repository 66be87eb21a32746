package schema_test

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cqa/internal/schema"
)

func atom(rel string, key int, terms ...schema.Term) schema.Atom {
	return schema.NewAtom(rel, key, terms...)
}

var (
	x = schema.Var("x")
	y = schema.Var("y")
	z = schema.Var("z")
	c = schema.Const("c")
)

func TestTermString(t *testing.T) {
	if got := x.String(); got != "x" {
		t.Errorf("var string = %q", got)
	}
	if got := c.String(); got != "'c'" {
		t.Errorf("const string = %q", got)
	}
}

func TestAtomBasics(t *testing.T) {
	a := atom("R", 1, x, y)
	if a.Arity() != 2 || a.AllKey() || !a.SimpleKey() {
		t.Errorf("signature broken: %+v", a)
	}
	if !a.KeyVars().Equal(schema.NewVarSet("x")) {
		t.Errorf("key vars = %v", a.KeyVars())
	}
	if !a.Vars().Equal(schema.NewVarSet("x", "y")) {
		t.Errorf("vars = %v", a.Vars())
	}
	if !a.NonKeyVars().Equal(schema.NewVarSet("y")) {
		t.Errorf("non-key vars = %v", a.NonKeyVars())
	}
	if got := a.String(); got != "R(x | y)" {
		t.Errorf("string = %q", got)
	}
	b := atom("R", 2, x, y)
	if !b.AllKey() {
		t.Error("R(x,y) with key 2 should be all-key")
	}
	if got := b.String(); got != "R(x, y)" {
		t.Errorf("all-key string = %q", got)
	}
}

// A variable occurring in both key and non-key positions: NonKeyVars is
// the set difference, per the paper's vars(F) \ key(F).
func TestNonKeyVarsSetDifference(t *testing.T) {
	a := atom("R", 1, x, x, y)
	if !a.NonKeyVars().Equal(schema.NewVarSet("y")) {
		t.Errorf("non-key vars = %v, want {y}", a.NonKeyVars())
	}
}

func TestAtomSubstitute(t *testing.T) {
	a := atom("R", 1, x, y)
	got := a.Substitute(map[string]schema.Term{"x": c})
	want := atom("R", 1, c, y)
	if !got.Equal(want) {
		t.Errorf("substitute = %v, want %v", got, want)
	}
	// The original atom must be unchanged.
	if !a.Equal(atom("R", 1, x, y)) {
		t.Error("substitute mutated the receiver")
	}
}

func TestQueryPartition(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(atom("R", 1, x, y)),
		schema.Neg(atom("S", 1, x, y)),
		schema.Neg(atom("T", 1, y, x)),
	)
	if len(q.Positive()) != 1 || len(q.Negated()) != 2 {
		t.Fatalf("partition broken: %v / %v", q.Positive(), q.Negated())
	}
	if !q.IsNegated("S") || q.IsNegated("R") {
		t.Error("IsNegated broken")
	}
	if _, ok := q.AtomByRel("T"); !ok {
		t.Error("AtomByRel(T) missed")
	}
	if _, ok := q.AtomByRel("U"); ok {
		t.Error("AtomByRel(U) found a ghost")
	}
}

func TestValidateSelfJoin(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(atom("R", 1, x, y)),
		schema.Pos(atom("R", 1, y, x)),
	)
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "self-join") {
		t.Errorf("err = %v, want self-join error", err)
	}
}

func TestValidateSafety(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(atom("R", 1, x, y)),
		schema.Neg(atom("S", 1, z)),
	)
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "safety") {
		t.Errorf("err = %v, want safety error", err)
	}
}

func TestValidateSignature(t *testing.T) {
	q := schema.NewQuery(schema.Pos(schema.Atom{Rel: "R", Key: 0, Terms: []schema.Term{x}}))
	if err := q.Validate(); err == nil {
		t.Error("key 0 should be invalid")
	}
	q = schema.NewQuery(schema.Pos(schema.Atom{Rel: "R", Key: 2, Terms: []schema.Term{x}}))
	if err := q.Validate(); err == nil {
		t.Error("key > arity should be invalid")
	}
	q = schema.NewQuery(schema.Pos(schema.Atom{Rel: "R"}))
	if err := q.Validate(); err == nil {
		t.Error("arity 0 should be invalid")
	}
}

// Example 3.2: the first query is not weakly-guarded; the second is
// weakly-guarded but not guarded.
func TestExample32Guardedness(t *testing.T) {
	q1 := schema.NewQuery(
		schema.Pos(atom("X", 1, x)),
		schema.Pos(atom("Y", 1, y)),
		schema.Neg(atom("R", 1, x, y)),
		schema.Neg(atom("S", 1, y, x)),
	)
	if q1.WeaklyGuarded() {
		t.Error("q1 of Example 3.2 should not be weakly-guarded")
	}

	u := schema.Var("u")
	w := schema.Var("w")
	q2 := schema.NewQuery(
		schema.Pos(atom("R", 1, x, y, z, u)),
		schema.Pos(atom("S", 1, y, w, z)),
		schema.Pos(atom("T", 1, x, u, w)),
		schema.Neg(atom("N", 1, x, y, z, u, w)),
	)
	if !q2.WeaklyGuarded() {
		t.Error("q2 of Example 3.2 should be weakly-guarded")
	}
	if q2.Guarded() {
		t.Error("q2 of Example 3.2 should not be guarded")
	}
}

func TestGuardedImpliesWeaklyGuarded(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(atom("R", 1, x, y)),
		schema.Neg(atom("S", 1, y, x)),
	)
	if !q.Guarded() || !q.WeaklyGuarded() {
		t.Error("guarded query misclassified")
	}
}

func TestQueryWithout(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(atom("R", 1, x, y)),
		schema.Neg(atom("S", 1, y, x)),
	)
	q2 := q.Without("S")
	if len(q2.Lits) != 1 || q2.Lits[0].Atom.Rel != "R" {
		t.Errorf("Without = %v", q2)
	}
	// The original is untouched.
	if len(q.Lits) != 2 {
		t.Error("Without mutated the receiver")
	}
}

func TestQuerySubstituteAndString(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(atom("R", 1, x, y)),
		schema.Neg(atom("S", 1, y, x)),
	)
	got := q.Substitute(map[string]schema.Term{"y": c})
	if got.String() != "R(x | 'c'), !S('c' | x)" {
		t.Errorf("substituted string = %q", got.String())
	}
}

func TestDiseq(t *testing.T) {
	d := schema.NewDiseq([]schema.Term{x, y}, []schema.Term{c, c})
	if !d.Vars().Equal(schema.NewVarSet("x", "y")) {
		t.Errorf("diseq vars = %v", d.Vars())
	}
	d2 := d.Substitute(map[string]schema.Term{"x": schema.Const("d")})
	if d2.Left[0].IsVar {
		t.Error("substitute did not reach diseq left side")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched diseq lengths should panic")
		}
	}()
	schema.NewDiseq([]schema.Term{x}, []schema.Term{})
}

func TestExtQueryWeaklyGuarded(t *testing.T) {
	q := schema.NewQuery(schema.Pos(atom("R", 1, x, y)), schema.Pos(atom("T", 1, y, z)))
	e := schema.Ext(q).WithDiseq(schema.NewDiseq([]schema.Term{x, y}, []schema.Term{c, c}))
	if !e.WeaklyGuarded() {
		t.Error("x,y co-occur in R; diseq should be weakly-guarded")
	}
	e2 := schema.Ext(q).WithDiseq(schema.NewDiseq([]schema.Term{x, z}, []schema.Term{c, c}))
	if e2.WeaklyGuarded() {
		t.Error("x,z do not co-occur; diseq should not be weakly-guarded")
	}
}

// VarSet laws, property-based.
func TestVarSetProperties(t *testing.T) {
	mk := func(names []string) schema.VarSet {
		s := make(schema.VarSet)
		for _, n := range names {
			if n != "" {
				s.Add(n)
			}
		}
		return s
	}
	// Union is commutative and contains both operands.
	err := quick.Check(func(a, b []string) bool {
		sa, sb := mk(a), mk(b)
		u1, u2 := sa.Union(sb), sb.Union(sa)
		return u1.Equal(u2) && sa.SubsetOf(u1) && sb.SubsetOf(u1)
	}, nil)
	if err != nil {
		t.Error(err)
	}
	// Minus removes exactly the intersection.
	err = quick.Check(func(a, b []string) bool {
		sa, sb := mk(a), mk(b)
		m := sa.Minus(sb)
		return m.Intersect(sb).Empty() && m.Union(sa.Intersect(sb)).Equal(sa)
	}, nil)
	if err != nil {
		t.Error(err)
	}
	// Copy is independent.
	s := mk([]string{"a", "b"})
	cp := s.Copy()
	cp.Add("c")
	if s.Has("c") {
		t.Error("Copy is aliased")
	}
}

func TestVarSetSortedString(t *testing.T) {
	s := schema.NewVarSet("b", "a")
	if got := s.String(); got != "{a, b}" {
		t.Errorf("set string = %q", got)
	}
}

func TestQueryCloneDeep(t *testing.T) {
	q := schema.NewQuery(schema.Pos(atom("R", 1, x, y)))
	cl := q.Clone()
	cl.Lits[0].Atom.Terms[0] = c
	if !q.Lits[0].Atom.Terms[0].IsVar {
		t.Error("Clone shares term storage")
	}
}

func TestConstants(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(atom("R", 1, x, c)),
		schema.Neg(atom("S", 1, c, schema.Const("d"))),
	)
	consts := q.Constants()
	if !consts["c"] || !consts["d"] || len(consts) != 2 {
		t.Errorf("constants = %v", consts)
	}
}

func TestCoKey(t *testing.T) {
	a, b := schema.Const("a"), schema.Const("b")
	pos, neg := schema.Pos, schema.Neg
	for _, tc := range []struct {
		q    schema.Query
		want []schema.Term // nil: not co-keyed
	}{
		{schema.NewQuery(pos(atom("R", 1, x, y)), neg(atom("S", 1, x, a))), []schema.Term{x}},
		{schema.NewQuery(pos(atom("R", 2, a, x, y)), neg(atom("S", 2, a, x, z)), pos(atom("T", 2, a, x))), []schema.Term{a, x}},
		{schema.NewQuery(pos(atom("R", 1, x, y))), []schema.Term{x}},
		{schema.NewQuery(pos(atom("R", 1, x, y)), neg(atom("S", 1, y, x))), nil},                 // other variable
		{schema.NewQuery(pos(atom("R", 1, a, y)), pos(atom("S", 1, b, y))), nil},                 // other constant
		{schema.NewQuery(pos(atom("R", 1, x, y)), pos(atom("S", 2, x, y))), nil},                 // other key length
		{schema.NewQuery(pos(atom("R", 1, x, y)), neg(atom("S", 1, schema.Const("x"), y))), nil}, // constant named like the variable
	} {
		got, ok := tc.q.CoKey()
		if ok != (tc.want != nil) || (ok && !reflect.DeepEqual(got, tc.want)) {
			t.Errorf("%s: CoKey = %v, %v; want %v", tc.q, got, ok, tc.want)
		}
	}
	if _, ok := schema.NewQuery().CoKey(); !ok {
		t.Error("the empty query is vacuously co-keyed")
	}
}
