package core_test

import (
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

func TestPreparedFO(t *testing.T) {
	q := parse.MustQuery("P(x | y), !N('c' | y)")
	p, err := core.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.InFO() {
		t.Fatal("q3 should be FO")
	}
	d := parse.MustDatabase(`
		P(p1 | v1)
		P(p2 | v2)
		N(c | v1)
	`)
	if !p.Certain(d) {
		t.Error("q3 should be certain here")
	}
	got, err := core.Certain(q, d, core.EngineDirect)
	if err != nil || !got {
		t.Errorf("Certain(direct) = %v, %v", got, err)
	}
	if !naive.IsCertain(q, d) {
		t.Error("repair enumeration disagrees")
	}
}

func TestPreparedHardQuery(t *testing.T) {
	q := parse.MustQuery("R(x | y), !S(y | x)")
	p, err := core.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.InFO() {
		t.Fatal("q1 should not be FO")
	}
	d := parse.MustDatabase("R(g | b)\nS(b | g)")
	if p.Certain(d) != naive.IsCertain(p.Classification().Query, d) {
		t.Error("fallback disagrees with naive")
	}
	if _, err := core.Certain(q, d, core.EngineRewriting); err == nil {
		t.Error("rewriting engine should fail for a hard query")
	}
}

func TestPreparedInvalid(t *testing.T) {
	q := parse.MustQuery("R(x | y)")
	q.Lits = append(q.Lits, q.Lits[0]) // create a self-join
	if _, err := core.Prepare(q); err == nil {
		t.Error("invalid query should fail to prepare")
	}
}

// Prepared answers match one-shot Certain across random queries and
// databases. The one-shot side is an engine EngineAuto does not run
// through the prepared shape: the tree walk over the rewriting for FO
// queries, repair enumeration for the rest.
func TestPreparedMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	opts := gen.DefaultQueryOptions()
	dbOpts := gen.DefaultDBOptions()
	for trial := 0; trial < 30; trial++ {
		q := gen.Query(rng, opts)
		p, err := core.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		engine := core.EngineRewriting
		if !p.InFO() {
			engine = core.EngineNaive
		}
		for i := 0; i < 3; i++ {
			d := gen.Database(rng, q, dbOpts)
			want, err := core.Certain(q, d, engine)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Certain(d); got != want {
				t.Fatalf("prepared = %v, one-shot = %v on %s", got, want, q)
			}
		}
	}
}

// Bind-time empty-scan short-circuit: a positive atom's constant that
// its column lacks makes the bound program constant-false. Random
// queries with constants in key and non-key positions, over databases
// where those constants are sometimes nowhere, sometimes only in another
// column or relation, must answer on every compiled path what the tree
// walker and repair enumeration answer.
func TestEmptyScanMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	domain := []string{"a", "b", "c", "d"}
	term := func(vars ...string) schema.Term {
		if rng.Intn(2) == 0 {
			return schema.Const(domain[rng.Intn(len(domain))])
		}
		return schema.Var(vars[rng.Intn(len(vars))])
	}
	falseByNeed := 0
	for i := 0; i < 400; i++ {
		lits := []schema.Literal{schema.Pos(schema.NewAtom("R", 1, term("x"), term("x", "y")))}
		if rng.Intn(2) == 0 {
			lits = append(lits, schema.Literal{Neg: rng.Intn(2) == 0, Atom: schema.NewAtom("S", 1, term("x"), term("x", "y"))})
		}
		if rng.Intn(3) == 0 {
			lits = append(lits, schema.Pos(schema.NewAtom("Absent", 1, term("x"), term("x", "y"))))
		}
		q := schema.NewQuery(lits...)
		p, err := core.Prepare(q)
		if err != nil || !p.InFO() {
			continue
		}
		d := db.New()
		d.MustDeclare("R", 2, 1)
		d.MustDeclare("S", 2, 1)
		// Three of the four constants, so one is always out of the data.
		for n := rng.Intn(8); n > 0; n-- {
			d.MustInsert(db.F([]string{"R", "S"}[rng.Intn(2)], domain[rng.Intn(3)], domain[rng.Intn(3)]))
		}
		want := p.CertainTreeWalk(d)
		if oracle := naive.IsCertain(q, d); oracle != want {
			t.Fatalf("%s: tree walk %v, repair enumeration %v\n%s", q, want, oracle, d)
		}
		if got := p.Certain(d); got != want {
			t.Fatalf("%s: Certain = %v, tree walk %v\n%s", q, got, want, d)
		}
		if !want && len(q.Constants()) > 0 {
			falseByNeed++
		}
	}
	if falseByNeed == 0 {
		t.Fatal("no case had a constant to miss")
	}
}

// The short-circuit is a property of one snapshot: the insert that
// brings the constant into the column is answered on the next one.
func TestEmptyScanFollowsLaterInsert(t *testing.T) {
	q := parse.MustQuery("R(x | 'late'), !S(x | 'late')")
	p, err := core.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// 'late' is known to the dictionary — S holds it — but not to R's
	// value column.
	d := parse.MustDatabase("R(k | early)\nS(other | late)")
	if p.Certain(d) || p.CertainTreeWalk(d) {
		t.Fatal("certain before any R-fact carries the constant")
	}
	next := d.CloneCOW("R")
	next.MustInsert(db.F("R", "k2", "late"))
	next.SeedInterned(db.InternNext(d.Interned(), next))
	if !p.Certain(next) || !p.CertainTreeWalk(next) || !naive.IsCertain(q, next) {
		t.Fatal("not certain once R(k2 | late) is in")
	}
	if p.Certain(d) {
		t.Fatal("the earlier snapshot changed its answer")
	}
}
