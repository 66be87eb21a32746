package parse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cqa/internal/db"
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

// sameLoad fails t unless got, loaded in bulk, is the database want,
// loaded fact by fact, down to the dictionary's order, every relation's
// row order and block chains, and how both take later writes.
func sameLoad(t *testing.T, src string, got, want *db.Database) {
	t.Helper()
	if got.String() != want.String() {
		t.Fatalf("%q loads as\n%s\nfact by fact as\n%s", src, got, want)
	}
	gi, wi := got.Interned(), want.Interned()
	if gi.NumIDs() != wi.NumIDs() {
		t.Fatalf("%q: %d dictionary ids, fact by fact %d", src, gi.NumIDs(), wi.NumIDs())
	}
	for id := int32(0); id < gi.NumIDs(); id++ {
		if gi.Value(id) != wi.Value(id) {
			t.Fatalf("%q: id %d is %q, fact by fact %q", src, id, gi.Value(id), wi.Value(id))
		}
	}
	names := want.RelationNames()
	if !slices.Equal(got.RelationNames(), names) {
		t.Fatalf("%q: relations %v, fact by fact %v", src, got.RelationNames(), names)
	}
	for _, name := range names {
		g, w := gi.Relation(name), wi.Relation(name)
		if g.Arity != w.Arity || g.Key != w.Key || g.Rows() != w.Rows() || g.NumBlocks() != w.NumBlocks() {
			t.Fatalf("%q: %s is [%d, %d] with %d rows in %d blocks, fact by fact [%d, %d] with %d in %d",
				src, name, g.Arity, g.Key, g.Rows(), g.NumBlocks(), w.Arity, w.Key, w.Rows(), w.NumBlocks())
		}
		for i := 0; i < g.Rows(); i++ {
			if !slices.Equal(g.Row(i), w.Row(i)) || g.NextInBlock(i) != w.NextInBlock(i) {
				t.Fatalf("%q: %s row %d is %v (next %d), fact by fact %v (next %d)",
					src, name, i, g.Row(i), g.NextInBlock(i), w.Row(i), w.NextInBlock(i))
			}
		}
	}
	// The tables may be laid out differently; writes must not tell.
	for _, name := range names {
		facts := want.Facts(name)
		if len(facts) == 0 {
			continue
		}
		first := facts[0]
		extra := db.Fact{Rel: name, Args: append([]string{"fresh"}, first.Args[1:]...)}
		for _, d := range []*db.Database{got, want} {
			d.Remove(first)
			d.MustInsert(extra)
			d.MustInsert(first)
		}
	}
	if got.String() != want.String() {
		t.Fatalf("%q after writes:\n%s\nfact by fact\n%s", src, got, want)
	}
}

// FuzzDatabase checks that the database parser never panics, that it
// gives what loading fact by fact gives — the same database or the same
// error — and that accepted databases round-trip through String.
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
		"R(a | b)\nR(a | b)\nR(a | c)\nS(b | a)\nR(b | a)\nR(a | c)",
		"R(a, b | c)\nR(a, b | d)\nR(b, a | c)\nR(a, b | c)",
		"R(a | b)\nS(a)\nR(a | b, c)",
		"R(a | b)\nS(a)\nT(x | y)\nU(a)\nV(a)\nW(a)\nX(a)\nY(a)\nZ(a)\nQ(a)\nR(c | d)\nQ(a, b)",
		"R(a | b)\nR(a | b)",
		// The text is read in one pass, so a line must not leak into the
		// next: a quote left open at '\n' is unterminated on its own line.
		"R('a | b)\nS(c | d)\n",
		"R(a | b)\nR('x\nR(c | 'd')\n",
		"R('a#b' | c) # it's a comment\nS('#' | '#')",
		"R(a | b)\r\nS(b\r| a)\r\n",
		"R(a | b)\rS(b | a)",
		"R(a\u00a0|\u3000b)\u00a0\nS(\u3000a)\u3000",
		"\u3000R(a | b)\u00a0# c\u3000\n\u00a0S(b | a)",
		"R(a | b)\n   \n\t\n\u3000\n\u00a0\r\nS(b | a)",
		"R(a | b)\nS(b | a) # no newline at the end",
		// Errors past line 2, each with its line number and its offset in
		// the line's text.
		"R(a | b)\n\nS(b | a)\n  T(a, )\n",
		"R(a | b)\n# c\n\u00a0 S(b | 'x)\n",
		"A(a)\nB(b)\nC(c) junk\n",
		"A(a)\nB(b)\n  C(c | d # x)\n",
		"A(a)\nB(b)\n\tC(c | d   \t\n",
		"A(a)\nB(b)\nC(c | d)\nC(c, d)\n",
		"A(a)\nB(b)\n  c(d)\n",
		"A(a)\nB(b)\nC(\u00a0)\u3000\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := parse.Database(src)
		want, wantErr := parse.PerFactDatabase(src)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%q: error %v, fact by fact %v", src, err, wantErr)
		}
		if err != nil {
			return
		}
		sameLoad(t, src, d, want)
		d = parse.MustDatabase(src) // sameLoad wrote to the first one
		again, err := parse.Database(d.String())
		if err != nil {
			t.Fatalf("round trip failed: %v\noriginal:\n%s", err, d)
		}
		if again.String() != d.String() {
			t.Fatalf("round trip changed\n%s\nto\n%s", d, again)
		}
	})
}

// inlineTexts renders about n facts in each shape of the benchmark's
// inline databases: fo (gen.FactsText), hall, matching with all-distinct
// values, reachability and hard, each with a few inconsistent blocks.
func inlineTexts(rng *rand.Rand, n int) []string {
	var hall, matching, reach, hard strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&hall, "S(a%d)\n", i)
	}
	for j := 1; j <= 3; j++ {
		for _, v := range rng.Perm(4)[:3] {
			fmt.Fprintf(&hall, "N%d(c | a%d)\n", j, v)
		}
		for i := 0; i < n/3; i++ {
			fmt.Fprintf(&hall, "N%d(d%d | a%d)\n", j, i, rng.Intn(4))
		}
	}
	for i := 0; i < n/2; i++ {
		fmt.Fprintf(&matching, "P(u%d | v%d)\nN(v%d | u%d)\n", i, i, i, i)
		fmt.Fprintf(&reach, "E(a%d, b%d)\nB(a%d | b%d)\n", i, i, i, i)
	}
	for i := 0; i < n/3; i++ {
		fmt.Fprintf(&hard, "P(u%d | v%d)\nN(v%d | u%d)\nM(u%d | w%d)\n", i, i, i, i, i, i)
	}
	for j := 0; j < 3; j++ {
		fmt.Fprintf(&matching, "P(x%d | y0)\nP(x%d | z%d)\nN(y0 | x%d)\n", j, j, j, j)
		fmt.Fprintf(&hard, "P(x%d | y0)\nP(x%d | z%d)\nN(y0 | x%d)\nM(x%d | y0)\n", j, j, j, j, j)
		fmt.Fprintf(&reach, "E(g%d, h%d)\nB(g%d | h%d)\nC(h%d | g%d)\n", j, j+1, j, j+1, j+1, j)
	}
	return []string{gen.FactsText(rng, n), hall.String(), matching.String(), reach.String(), hard.String()}
}

// Bulk loading matches loading fact by fact on large texts too: the
// inline databases' shapes; random texts whose duplicates and large
// blocks leave the tables sized for the raw rows to be shrunk; and a text
// of more than 4 096 facts, duplicates among them, with more values than
// lines, which grows the dictionary past the size the line count gives.
func TestLoadMatchesPerFact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	texts := inlineTexts(rng, 2000)
	for _, spread := range []int{3, 40, 1000} {
		var sb strings.Builder
		for i := 0; i < 3000; i++ {
			fmt.Fprintf(&sb, "R(k%d | v%d)\nS(k%d, v%d)\n", rng.Intn(spread), rng.Intn(spread), rng.Intn(spread), rng.Intn(4))
		}
		texts = append(texts, sb.String())
	}
	var wide strings.Builder
	for i := 0; i < 2200; i++ {
		fmt.Fprintf(&wide, "T(a%d, b%d | c%d)\nT(a%d, b%d | c%d)\n", i, i, i, i, i, rng.Intn(i+1))
	}
	texts = append(texts, wide.String())
	for _, src := range texts {
		d, err := parse.Database(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := parse.PerFactDatabase(src)
		if err != nil {
			t.Fatal(err)
		}
		sameLoad(t, src[:40], d, want)
	}
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
