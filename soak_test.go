package cqa

import (
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/direct"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
	"cqa/internal/sqlexec"
	"cqa/internal/sqlgen"
)

// TestSoakAllEngines is the repository-wide consistency sweep: random
// weakly-guarded queries with a wider shape distribution than the
// per-package tests, each checked across every engine — naive repair
// enumeration, Algorithm 1, the FO rewriting under both evaluators, and
// the generated SQL under the in-repo SQL engine — plus the
// typed-database transformation.
func TestSoakAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(987654))
	opts := gen.QueryOptions{
		MaxPositive: 3,
		MaxNegated:  3,
		MaxArity:    4,
		Vars:        []string{"x", "y", "z", "w", "v"},
		ConstProb:   0.2,
	}
	dbOpts := gen.DBOptions{BlocksPerRelation: 2, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.6}

	foChecked, hardChecked := 0, 0
	for foChecked < 60 || hardChecked < 25 {
		q := gen.Query(rng, opts)
		cls, err := core.Classify(q)
		if err != nil {
			t.Fatalf("classify %s: %v", q, err)
		}
		d := gen.Database(rng, q, dbOpts)
		if d.NumRepairs() > 4096 {
			continue // keep the exhaustive ground truth fast
		}
		want := naive.IsCertain(q, d)

		td, err := db.TypeTransform(q, d)
		if err != nil {
			t.Fatalf("type transform %s: %v", q, err)
		}
		if got := naive.IsCertain(q, td); got != want {
			t.Fatalf("typed transform changed answer on %s", q)
		}

		switch cls.Verdict {
		case core.VerdictFO:
			if foChecked >= 60 {
				continue
			}
			foChecked++
			dd := ensure(d, q)
			if got := fo.Eval(dd, cls.Rewriting); got != want {
				t.Fatalf("rewriting = %v, want %v on %s\n%s", got, want, q, d)
			}
			// The reference evaluator is |adom|^rank; keep it feasible.
			cheapRef := fo.QuantifierRank(cls.Rewriting) <= 5
			if cheapRef {
				if got := fo.EvalReference(dd, cls.Rewriting); got != want {
					t.Fatalf("reference eval = %v, want %v on %s", got, want, q)
				}
			}
			if got, err := direct.IsCertain(q, dd); err != nil || got != want {
				t.Fatalf("Algorithm 1 = %v (%v), want %v on %s", got, err, want, q)
			}
			// The SQL executor also pays |adom| per quantifier.
			if cheapRef {
				sql, err := sqlgen.Translate(cls.Rewriting, sqlgen.Options{})
				if err != nil {
					t.Fatalf("sqlgen %s: %v", q, err)
				}
				if got, err := sqlexec.Run(sql, dd); err != nil || got != want {
					t.Fatalf("SQL = %v (%v), want %v on %s", got, err, want, q)
				}
			}
			// Prenexing the rewriting preserves the answer (the active
			// domain is non-empty: generated databases have facts).
			if cheapRef && len(dd.ActiveDomain()) > 0 {
				if got := fo.EvalReference(dd, fo.Prenex(cls.Rewriting)); got != want {
					t.Fatalf("prenex rewriting = %v, want %v on %s", got, want, q)
				}
			}
			// Every pick strategy agrees.
			for _, s := range []rewrite.PickStrategy{rewrite.PickLast, rewrite.PickNegatedFirst} {
				f2, err := rewrite.RewriteOpts(q, rewrite.Options{Pick: s})
				if err != nil {
					t.Fatalf("strategy %d on %s: %v", s, q, err)
				}
				if got := fo.Eval(dd, f2); got != want {
					t.Fatalf("strategy %d = %v, want %v on %s", s, got, want, q)
				}
			}
		case core.VerdictNotFO:
			if hardChecked >= 25 {
				continue
			}
			hardChecked++
			// Hard queries: rewriting and Algorithm 1 must refuse.
			if _, err := rewrite.Rewrite(q); err == nil {
				t.Fatalf("cyclic query %s unexpectedly rewrote", q)
			}
			if _, err := direct.IsCertain(q, d); err == nil {
				t.Fatalf("cyclic query %s unexpectedly accepted by Algorithm 1", q)
			}
			// ♯CERTAINTY consistency: certain iff all repairs satisfy.
			// Counting has no early exit, so cap the repair space.
			if d.NumRepairs() <= 4096 {
				sat, total := naive.CountSatisfyingRepairs(q, d)
				if (sat == total) != want {
					t.Fatalf("counting inconsistent on %s: %d/%d vs %v", q, sat, total, want)
				}
			}
		default:
			t.Fatalf("weakly-guarded query %s out of scope", q)
		}
	}
}

func ensure(d *db.Database, q schema.Query) *db.Database {
	if err := parse.DeclareQueryRelations(d, q); err != nil {
		panic(err)
	}
	return d
}
