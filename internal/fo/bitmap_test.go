package fo_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/parse"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
)

// 500-case differential test: the compiled program (vectorized where a
// quantifier lowers) agrees with the tree walker and the unoptimized
// reference on random closed formulas — including formulas with
// constants outside the database and databases with empty or missing
// relations.
func TestBitmapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(318))
	trials := 0
	for trials < 500 {
		f := randFormula(rng, 1+rng.Intn(3), nil)
		if !fo.FreeVars(f).Empty() {
			continue
		}
		trials++
		d := randSmallDB(rng)
		if trials%7 == 0 {
			// Exercise the empty-relation path: declared but no facts.
			d = db.New()
			d.MustDeclare("R", 2, 1)
			d.MustDeclare("S", 1, 1)
		}
		want := fo.EvalReference(d, f)
		if got := fo.Eval(d, f); got != want {
			t.Fatalf("tree walker = %v, reference = %v on %s with db:\n%s", got, want, f, d)
		}
		p, err := fo.Compile(f, nil)
		if err != nil {
			t.Fatalf("Compile(%s, nil): %v", f, err)
		}
		b := p.Bind(d.Interned())
		if got := b.Eval(); got != want {
			t.Fatalf("compiled = %v, reference = %v on %s (vec quants %d) with db:\n%s",
				got, want, f, p.VecQuants(), d)
		}
	}
}

// randFormula draws constants from {a,b,c,d} while randSmallDB only
// inserts {a,b,c}, so the differential above already sees out-of-db
// constants; this pins the synthetic-id interplay with vectorized
// equality and quantification explicitly.
func TestBitmapConstantsOutsideDatabase(t *testing.T) {
	d := db.New()
	d.MustDeclare("S", 1, 1)
	d.MustInsert(db.F("S", "a"))
	// ∃x (x = zzz ∧ ¬S(x)): the witness is the synthetic id of zzz.
	f := fo.Exists{Vars: []string{"x"}, Body: fo.NewAnd(
		fo.Eq{L: schema.Var("x"), R: schema.Const("zzz-not-in-db")},
		fo.Not{F: fo.Atom{Rel: "S", Key: 1, Terms: []schema.Term{schema.Var("x")}}},
	)}
	p := fo.MustCompile(f)
	if p.VecQuants() == 0 {
		t.Fatal("quantifier with equality + negated atom did not vectorize")
	}
	b := p.Bind(d.Interned())
	if !b.Eval() {
		t.Fatal("bitmap eval lost the synthetic-constant witness")
	}
	// Same over an undeclared relation: ∃x (x = c ∧ ¬R(x, x)) is true.
	g := fo.Exists{Vars: []string{"x"}, Body: fo.NewAnd(
		fo.Eq{L: schema.Var("x"), R: schema.Const("c")},
		fo.Not{F: fo.Atom{Rel: "R", Key: 1, Terms: []schema.Term{schema.Var("x"), schema.Var("x")}}},
	)}
	pg := fo.MustCompile(g)
	bg := pg.Bind(d.Interned())
	if !bg.Eval() {
		t.Fatal("∃x (x = c ∧ ¬R(x, x)) false over an undeclared relation")
	}
}

// The compiled program agrees with the tree walker on real
// certain-answer rewritings over generated databases, and the rewriting
// shapes the serving tier benchmarks actually vectorize.
func TestBitmapAgreesOnRewritings(t *testing.T) {
	rng := rand.New(rand.NewSource(319))
	opts := gen.DefaultQueryOptions()
	dbOpts := gen.DefaultDBOptions()
	tested, vectorized := 0, 0
	for tested < 40 {
		q := gen.Query(rng, opts)
		f, err := rewrite.Rewrite(q)
		if err != nil {
			continue
		}
		tested++
		d := gen.Database(rng, q, dbOpts)
		want := fo.Eval(d, f)
		p := fo.MustCompile(f)
		if p.VecQuants() > 0 {
			vectorized++
		}
		b := p.Bind(d.Interned())
		for i := 0; i < 3; i++ {
			if got := b.Eval(); got != want {
				t.Fatalf("compiled = %v, tree walker = %v on rewriting of %s\n%s", got, want, q, d)
			}
		}
		if ref := fo.EvalReference(d, f); ref != want {
			t.Fatalf("tree walker = %v, reference = %v on rewriting of %s\n%s", want, ref, q, d)
		}
	}
	if vectorized == 0 {
		t.Fatal("no generated rewriting vectorized a single quantifier")
	}
}

// The benchmark workloads must take the vectorized path, otherwise the
// bitmap benchmarks measure nothing.
func TestBitmapVectorizesBenchQueries(t *testing.T) {
	for _, qs := range []string{
		"Lives(p | t), !Born(p | t), !Likes(p, t)",
		"R0(x0 | x1), R1(x1 | x2), R2(x2 | x3), !N(x0 | x1)",
	} {
		q, err := parse.Query(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		f, err := rewrite.Rewrite(q)
		if err != nil {
			t.Fatalf("rewrite %q: %v", qs, err)
		}
		p := fo.MustCompile(f)
		if p.VecQuants() == 0 {
			t.Fatalf("rewriting of %q lowered zero vectorized quantifiers", qs)
		}
	}
}

// 32 goroutines share one Bound (one pool, one lazily built set of hole
// indexes) and must all read the same verdicts from Eval. Run under
// -race this is the shared-program race test.
func TestBitmapSharedBoundRace(t *testing.T) {
	rng := rand.New(rand.NewSource(320))
	d := db.New()
	d.MustDeclare("Lives", 2, 1)
	d.MustDeclare("Born", 2, 1)
	d.MustDeclare("Likes", 2, 2)
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("p%d", rng.Intn(60))
		c := fmt.Sprintf("c%d", rng.Intn(40))
		d.MustInsert(db.F("Lives", p, c))
		if rng.Intn(3) == 0 {
			d.MustInsert(db.F("Born", p, c))
		}
	}
	q, err := parse.Query("Lives(p | t), !Born(p | t), !Likes(p, t)")
	if err != nil {
		t.Fatal(err)
	}
	f, err := rewrite.Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	p := fo.MustCompile(f)
	b := p.Bind(d.Interned())
	want := b.Eval()

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := b.Eval(); got != want {
					errs <- fmt.Sprintf("Eval verdict flipped to %v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Larger instances push the IDSet construction across the dense/sparse
// boundary; the verdicts must not depend on the representation.
func TestBitmapDenseSparseBoundary(t *testing.T) {
	for _, n := range []int{4, 64, 300, 1500} {
		d := db.New()
		d.MustDeclare("Lives", 2, 1)
		d.MustDeclare("Born", 2, 1)
		d.MustDeclare("Likes", 2, 2)
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("p%06d", i)
			c := fmt.Sprintf("c%06d", i%97)
			d.MustInsert(db.F("Lives", p, c))
			if i%13 == 0 {
				d.MustInsert(db.F("Lives", p, fmt.Sprintf("c%06d", (i+1)%97)))
			}
			if i%7 == 0 {
				d.MustInsert(db.F("Born", p, c))
			}
		}
		q, err := parse.Query("Lives(p | t), !Born(p | t), !Likes(p, t)")
		if err != nil {
			t.Fatal(err)
		}
		f, err := rewrite.Rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		p := fo.MustCompile(f)
		b := p.Bind(d.Interned())
		if got, want := b.Eval(), fo.Eval(d, f); got != want {
			t.Fatalf("n=%d: compiled = %v, tree walker = %v", n, got, want)
		}
	}
}
