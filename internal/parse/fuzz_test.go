package parse_test

import (
	"math/rand"
	"testing"

	"cqa/internal/gen"
	"cqa/internal/parse"
)

// FuzzParseQuery checks that the query parser never panics and that
// accepted queries are valid and round-trip through String.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"R(x | y), !S(y | x)",
		"R(x, y)",
		"N('c' | y)",
		"R(x | 'a b'), not T(x)",
		"R(x",
		"!!R(x)",
		"R(x | y | z)",
		"R('unterminated",
		"R(x),R(x)",
		"⊥(x)",
		"R(x)&S(x)&!T(x)",
		"R('x#y' | c)",
		"R('a b' | c)",
		"R(a | 'b)')",
		"R('' | c)",
		"R(x | y),\r\n!S(y | x)\r\n",
		"Été(naïve | 'smörgås')",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := parse.Query(src)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted invalid query %q: %v", src, err)
		}
		// Round trip: the printed form must parse to the same string.
		again, err := parse.Query(q.String())
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", q, err)
		}
		if again.String() != q.String() {
			t.Fatalf("round trip changed %q to %q", q, again)
		}
	})
}

// FuzzDatabase checks that the database parser never panics and that
// accepted databases round-trip through String.
func FuzzDatabase(f *testing.F) {
	seeds := []string{
		"R(a | b)\nS(b | a)",
		"# comment only",
		"T(1, 2)\n\nT(3, 4)",
		"R(a | b)\nR(a, b)",
		"broken(",
		"R(a | b) trailing",
		"R('x#y' | c)",
		"R('a b' | c)",
		"R(a | 'b)')",
		"R('' | c)",
		"R(a | b)\r\nS(b | a)\r\n",
		"Été(naïve | 'smörgås')",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := parse.Database(src)
		if err != nil {
			return
		}
		again, err := parse.Database(d.String())
		if err != nil {
			t.Fatalf("round trip failed: %v\noriginal:\n%s", err, d)
		}
		if again.String() != d.String() {
			t.Fatalf("round trip changed\n%s\nto\n%s", d, again)
		}
	})
}

// Generated queries always round-trip through the parser — the printer
// and the parser agree on the concrete syntax.
func TestGeneratedQueriesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	opts := gen.DefaultQueryOptions()
	for i := 0; i < 200; i++ {
		q := gen.Query(rng, opts)
		back, err := parse.Query(q.String())
		if err != nil {
			t.Fatalf("round trip of %s failed: %v", q, err)
		}
		if back.String() != q.String() {
			t.Fatalf("round trip changed %s to %s", q, back)
		}
	}
}

// Generated databases round-trip too.
func TestGeneratedDatabasesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(322))
	q := parse.MustQuery("R(x | y, z), !S(y | x)")
	for i := 0; i < 50; i++ {
		d := gen.Database(rng, q, gen.DefaultDBOptions())
		back, err := parse.Database(d.String())
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, d)
		}
		if back.String() != d.String() {
			t.Fatalf("round trip changed\n%s\nto\n%s", d, back)
		}
	}
}
