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

// The full classification table for every example query in the paper.
func TestPaperClassificationTable(t *testing.T) {
	cases := []struct {
		name, src string
		verdict   core.Verdict
		hardness  string
		wg        bool
	}{
		{"q0 (Sec 5.1)", "R(x | y), S(y | x)", core.VerdictNotFO, "L-hard", true},
		{"q1 (Ex 1.1)", "R(x | y), !S(y | x)", core.VerdictNotFO, "NL-hard", true},
		{"q2 (Sec 5.1)", "R(x, y), !S(x | y), !T(y | x)", core.VerdictNotFO, "L-hard", true},
		{"q3 (Ex 4.2)", "P(x | y), !N('c' | y)", core.VerdictFO, "", true},
		{"qHall ℓ=3 (Ex 6.12)", "S(x), !N1('c' | x), !N2('c' | x), !N3('c' | x)", core.VerdictFO, "", true},
		{"mayors q1 (Ex 4.6)", "Mayor(t | p), !Lives(p | t)", core.VerdictNotFO, "NL-hard", true},
		{"mayors q2 (Ex 4.6)", "Likes(p, t), !Lives(p | t), !Mayor(t | p)", core.VerdictNotFO, "L-hard", true},
		{"mayors qa (Ex 4.6)", "Lives(p | t), !Born(p | t), !Likes(p, t)", core.VerdictFO, "", true},
		{"mayors qb (Ex 4.6)", "Likes(p, t), !Born(p | t), !Lives(p | t)", core.VerdictFO, "", true},
		{"q4 (Ex 7.1)", "X(x), Y(y), !R(x | y), !S(y | x)", core.VerdictOutOfScope, "", false},
		// The paper only uses this query to illustrate weak guards; our
		// classifier additionally finds the positive 2-cycle R ⇄ S.
		{"wg not guarded (Ex 3.2)", "R(x | y, z, u), S(y | w, z), T(x | u, w), !N(x | y, z, u, w)", core.VerdictNotFO, "L-hard", true},
	}
	for _, c := range cases {
		cls, err := core.Classify(parse.MustQuery(c.src))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if cls.Verdict != c.verdict {
			t.Errorf("%s: verdict = %v, want %v", c.name, cls.Verdict, c.verdict)
		}
		if cls.Hardness != c.hardness {
			t.Errorf("%s: hardness = %q, want %q", c.name, cls.Hardness, c.hardness)
		}
		if cls.WeaklyGuarded != c.wg {
			t.Errorf("%s: weakly-guarded = %v, want %v", c.name, cls.WeaklyGuarded, c.wg)
		}
		if c.verdict == core.VerdictFO && cls.Rewriting == nil {
			t.Errorf("%s: FO verdict without rewriting", c.name)
		}
		if c.verdict == core.VerdictNotFO && (cls.CycleF == "" || cls.CycleG == "") {
			t.Errorf("%s: non-FO verdict without a 2-cycle witness", c.name)
		}
	}
}

// mayors q2 is NL-hard? No — wait, this is asserted above as L-hard. The
// cycle structure is pinned separately here: its 2-cycle is between the
// two negated atoms Lives and Mayor.
func TestMayorsQ2Cycle(t *testing.T) {
	cls, err := core.Classify(parse.MustQuery("Likes(p, t), !Lives(p | t), !Mayor(t | p)"))
	if err != nil {
		t.Fatal(err)
	}
	pair := cls.CycleF + cls.CycleG
	if pair != "LivesMayor" && pair != "MayorLives" {
		t.Errorf("2-cycle = (%s, %s), want Lives ⇄ Mayor", cls.CycleF, cls.CycleG)
	}
	if cls.CycleNegated != 2 {
		t.Errorf("negated atoms in cycle = %d, want 2", cls.CycleNegated)
	}
}

// Hardness prefers the strongest bound: a query with both a 0-negated and
// a 1-negated 2-cycle reports NL-hard.
func TestHardnessPreference(t *testing.T) {
	// R ⇄ S (both positive, L-hard) and R' ⇄ S' pattern with one negated:
	// combine q0 and q1 over disjoint relations.
	q := parse.MustQuery("R(x | y), S(y | x), A(u | v), !B(v | u)")
	cls, err := core.Classify(q)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Verdict != core.VerdictNotFO || cls.Hardness != "NL-hard" {
		t.Errorf("verdict = %v/%s, want not-FO/NL-hard", cls.Verdict, cls.Hardness)
	}
	if cls.CycleNegated != 1 {
		t.Errorf("preferred cycle has %d negated atoms, want 1", cls.CycleNegated)
	}
}

// A non-weakly-guarded query with a 2-cycle containing one positive atom
// is still provably not in FO (Lemmas 5.5/5.6 need no weak guards).
func TestNotWGButProvablyHard(t *testing.T) {
	// Add the q1 cycle to a non-weakly-guarded pattern.
	q := parse.MustQuery("X(x), Y(y), !R(x | y), !S(y | x), A(u | w), !B(w | u)")
	cls, err := core.Classify(q)
	if err != nil {
		t.Fatal(err)
	}
	if cls.WeaklyGuarded {
		t.Fatal("query should not be weakly-guarded")
	}
	if cls.Verdict != core.VerdictNotFO {
		t.Errorf("verdict = %v, want not-FO via the A ⇄ B cycle", cls.Verdict)
	}
}

func TestClassifyRejectsInvalid(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"))),
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"))),
	)
	if _, err := core.Classify(q); err == nil {
		t.Error("self-join should be rejected")
	}
}

// All engines agree on random acyclic weakly-guarded queries.
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	opts := gen.DefaultQueryOptions()
	dbOpts := gen.DefaultDBOptions()
	tested := 0
	for tested < 40 {
		q := gen.Query(rng, opts)
		cls, err := core.Classify(q)
		if err != nil || cls.Verdict != core.VerdictFO {
			continue
		}
		tested++
		d := gen.Database(rng, q, dbOpts)
		want, err := core.Certain(q, d, core.EngineNaive)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []core.Engine{core.EngineAuto, core.EngineRewriting, core.EngineDirect} {
			got, err := core.Certain(q, d, e)
			if err != nil {
				t.Fatalf("engine %d: %v", e, err)
			}
			if got != want {
				t.Fatalf("engine %d = %v, naive = %v\nquery %s\ndb:\n%s", e, got, want, q, d)
			}
		}
	}
}

// EngineAuto answers non-FO queries as the server does — the matching
// decider, and search over block choices for a shape no decider serves
// — and agrees with repair enumeration, both verdicts shown.
func TestAutoFallback(t *testing.T) {
	cases := []struct {
		query, facts string
		want         bool
	}{
		{"R(x | y), !S(y | x)", "R(g | b)\nS(b | g)", false},
		{"R(x | y), !S(y | x), !T(x | y)", "R(g | h)\nR(k | h)\nS(h | g)\nS(h | k)", true},
		{"R(x | y), !S(y | x), !T(x | y)", "R(g | b)\nR(g | c)\nS(b | g)\nS(c | g)", false},
	}
	for _, c := range cases {
		q, d := parse.MustQuery(c.query), parse.MustDatabase(c.facts)
		got, err := core.Certain(q, d, core.EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want || naive.IsCertain(q, d) != c.want {
			t.Errorf("%s on %q: auto %v, enumeration %v, want %v", c.query, c.facts, got, naive.IsCertain(q, d), c.want)
		}
	}
}

// EngineRewriting fails cleanly on a non-FO query.
func TestRewritingEngineError(t *testing.T) {
	q := parse.MustQuery("R(x | y), !S(y | x)")
	if _, err := core.Certain(q, db.New(), core.EngineRewriting); err == nil {
		t.Error("rewriting engine should fail for a cyclic query")
	}
}

// Undeclared relations are treated as empty by every engine.
func TestUndeclaredRelations(t *testing.T) {
	q := parse.MustQuery("P(x | y), !N('c' | y)")
	d := db.New()
	d.MustDeclare("P", 2, 1)
	d.MustInsert(db.F("P", "a", "1"))
	// N is not declared at all.
	for _, e := range []core.Engine{core.EngineAuto, core.EngineRewriting, core.EngineDirect, core.EngineNaive} {
		got, err := core.Certain(q, d, e)
		if err != nil {
			t.Fatalf("engine %d: %v", e, err)
		}
		if !got {
			t.Errorf("engine %d: empty N should make q certain", e)
		}
	}
}
