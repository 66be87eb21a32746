package sqlexec_test

import (
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/rewrite"
	"cqa/internal/sqlexec"
	"cqa/internal/sqlgen"
)

func TestParseSimpleStatement(t *testing.T) {
	src := `WITH adom(v) AS (
  SELECT c1 AS v FROM R
  UNION
  SELECT c2 AS v FROM R
)
SELECT CASE WHEN
  EXISTS (SELECT 1 FROM adom d1 WHERE
    EXISTS (SELECT 1 FROM R t2 WHERE t2.c1 = d1.v AND t2.c2 = 'b'))
THEN 1 ELSE 0 END AS certain;`
	stmt, err := sqlexec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.CTEName != "adom" || stmt.CTECol != "v" || len(stmt.CTE) != 2 {
		t.Errorf("CTE parsed wrong: %+v", stmt)
	}
	if stmt.Out != "certain" {
		t.Errorf("output column = %q", stmt.Out)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT 1;",
		"WITH adom(v AS (SELECT c1 AS v FROM R) SELECT CASE WHEN (1 = 1) THEN 1 ELSE 0 END AS c;",
		"WITH adom(v) AS (SELECT c1 AS v FROM R) SELECT CASE WHEN (1 = 1) THEN 1 ELSE 0 END AS c", // no semicolon
		"WITH adom(v) AS (SELECT q7 AS v FROM R) SELECT CASE WHEN (1 = 1) THEN 1 ELSE 0 END AS c;",
	}
	for _, src := range cases {
		if _, err := sqlexec.Parse(src); err == nil {
			t.Errorf("parse(%.40q) should fail", src)
		}
	}
}

func TestRunSimple(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustInsert(db.F("R", "a", "b"))
	src := `WITH adom(v) AS (
  SELECT c1 AS v FROM R UNION SELECT c2 AS v FROM R
)
SELECT CASE WHEN
  EXISTS (SELECT 1 FROM adom d1 WHERE
    EXISTS (SELECT 1 FROM R t1 WHERE t1.c1 = d1.v AND t1.c2 = 'b'))
THEN 1 ELSE 0 END AS certain;`
	got, err := sqlexec.Run(src, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("R(a,b) exists; query should be true")
	}
	src2 := strings.Replace(src, "'b'", "'zz'", 1)
	got, err = sqlexec.Run(src2, d)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("no R(·, zz); query should be false")
	}
}

func TestRunEmptyCTE(t *testing.T) {
	d := db.New()
	src := `WITH adom(v) AS (
  SELECT NULL AS v WHERE 1 = 0
)
SELECT CASE WHEN (1 = 1) THEN 1 ELSE 0 END AS certain;`
	got, err := sqlexec.Run(src, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("tautology should be true on an empty database")
	}
}

func TestRunUnknownTable(t *testing.T) {
	d := db.New()
	src := `WITH adom(v) AS (SELECT c1 AS v FROM Ghost)
SELECT CASE WHEN (1 = 1) THEN 1 ELSE 0 END AS certain;`
	if _, err := sqlexec.Run(src, d); err == nil {
		t.Error("unknown table should fail")
	}
}

// End-to-end on the paper's FO queries: rewriting → SQL → execution
// equals repair enumeration. This closes the loop on the paper's claim
// that FO membership means "solvable by a single SQL query".
func TestEndToEndPaperQueries(t *testing.T) {
	queries := []string{
		"P(x | y), !N('c' | y)",
		"S(x), !N1('c' | x), !N2('c' | x)",
		"Lives(p | t), !Born(p | t), !Likes(p, t)",
		"Likes(p, t), !Born(p | t), !Lives(p | t)",
	}
	rng := rand.New(rand.NewSource(2718))
	dbOpts := gen.DefaultDBOptions()
	for _, src := range queries {
		q := parse.MustQuery(src)
		f, err := rewrite.Rewrite(q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		sql, err := sqlgen.Translate(f, sqlgen.Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for trial := 0; trial < 25; trial++ {
			d := gen.Database(rng, q, dbOpts)
			want := naive.IsCertain(q, d)
			got, err := sqlexec.Run(sql, d)
			if err != nil {
				t.Fatalf("%s: %v\nSQL:\n%s", src, err, sql)
			}
			if got != want {
				t.Fatalf("%s: SQL = %v, naive = %v\ndb:\n%s\nSQL:\n%s", src, got, want, d, sql)
			}
		}
	}
}

// End-to-end on random generated queries: SQL execution equals the
// reference model checker on the same rewriting.
func TestEndToEndRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	opts := gen.DefaultQueryOptions()
	dbOpts := gen.DefaultDBOptions()
	tested := 0
	for tested < 25 {
		q := gen.Query(rng, opts)
		f, err := rewrite.Rewrite(q)
		if err != nil {
			continue
		}
		sql, err := sqlgen.Translate(f, sqlgen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tested++
		d := gen.Database(rng, q, dbOpts)
		want := fo.EvalReference(d, f)
		got, err := sqlexec.Run(sql, d)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got != want {
			t.Fatalf("SQL = %v, fo.EvalReference = %v for %s\ndb:\n%s\nSQL:\n%s", got, want, q, d, sql)
		}
	}
}

func TestParseExpressionErrors(t *testing.T) {
	// Each case corrupts a different production.
	prefix := "WITH adom(v) AS (SELECT c1 AS v FROM R) SELECT CASE WHEN "
	suffix := " THEN 1 ELSE 0 END AS c;"
	bad := []string{
		"EXISTS SELECT 1 FROM R t1 WHERE (1 = 1)",   // missing '('
		"EXISTS (SELECT 2 FROM R t1 WHERE (1 = 1))", // SELECT not-1
		"EXISTS (SELECT 1 FROM R WHERE (1 = 1))",    // missing alias
		"EXISTS (SELECT 1 FROM R t1 WHERE 1 = 1",    // unclosed
		"t1.c1 =",                                   // missing operand
		"NOT",                                       // dangling NOT
		"(t1.c1 = 'x' AND)",                         // dangling AND
		"t1. = 'x'",                                 // missing column
	}
	for _, b := range bad {
		if _, err := sqlexec.Parse(prefix + b + suffix); err == nil {
			t.Errorf("parse should fail for %q", b)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := sqlexec.Parse("WITH adom(v) AS (SELECT c1 AS v FROM R) SELECT CASE WHEN ('unterminated THEN 1 ELSE 0 END AS c;"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := sqlexec.Parse("WITH adom(v) AS (SELECT c1 AS v FROM R) SELECT CASE WHEN (1 = 1) THEN 1 ELSE 0 END AS c; @"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestRunColumnOutOfRange(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 1, 1)
	d.MustInsert(db.F("R", "a"))
	src := `WITH adom(v) AS (SELECT c5 AS v FROM R)
SELECT CASE WHEN (1 = 1) THEN 1 ELSE 0 END AS certain;`
	if _, err := sqlexec.Run(src, d); err == nil {
		t.Error("out-of-range CTE column should fail")
	}
	src2 := `WITH adom(v) AS (SELECT c1 AS v FROM R)
SELECT CASE WHEN EXISTS (SELECT 1 FROM R t1 WHERE t1.c9 = 'a') THEN 1 ELSE 0 END AS certain;`
	if _, err := sqlexec.Run(src2, d); err == nil {
		t.Error("out-of-range row column should fail")
	}
	src3 := `WITH adom(v) AS (SELECT c1 AS v FROM R)
SELECT CASE WHEN t9.c1 = 'a' THEN 1 ELSE 0 END AS certain;`
	if _, err := sqlexec.Run(src3, d); err == nil {
		t.Error("unknown alias should fail")
	}
	src4 := `WITH adom(v) AS (SELECT c1 AS v FROM R)
SELECT CASE WHEN EXISTS (SELECT 1 FROM Ghost t1 WHERE t1.c1 = 'a') THEN 1 ELSE 0 END AS certain;`
	if _, err := sqlexec.Run(src4, d); err == nil {
		t.Error("unknown FROM table should fail")
	}
}

func TestEscapedQuoteRoundTrip(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 1, 1)
	d.MustInsert(db.F("R", "o'hara"))
	src := `WITH adom(v) AS (SELECT c1 AS v FROM R)
SELECT CASE WHEN EXISTS (SELECT 1 FROM R t1 WHERE t1.c1 = 'o''hara') THEN 1 ELSE 0 END AS certain;`
	got, err := sqlexec.Run(src, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("escaped quote literal should match")
	}
}
