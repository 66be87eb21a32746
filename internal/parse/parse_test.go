package parse_test

import (
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/parse"
)

func TestQueryRoundTrip(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"R(x | y), !S(y | x)", "R(x | y), !S(y | x)"},
		{"R(x|y) & not S(y|x)", "R(x | y), !S(y | x)"},
		{"P(x, y)", "P(x, y)"},
		{"N('c' | y)", "N('c' | y)"},
		{"R(x | 'a b', y)", "R(x | 'a b', y)"},
		{"R(x | 42)", "R(x | '42')"},
	}
	for _, c := range cases {
		q, err := parse.Query(c.src)
		if err != nil {
			t.Errorf("parse(%q): %v", c.src, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("parse(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	cases := []struct {
		src, frag string
	}{
		{"", "relation name"},
		{"r(x)", "uppercase"},
		{"R(x", "expected ')'"},
		{"R()", "expected term"},
		{"R(x) garbage", "trailing"},
		{"R(x | y | z)", "two '|'"},
		{"R(x), R(y)", "self-join"},
		{"R(x), !S(y)", "safety"},
		{"R('abc)", "unterminated"},
	}
	for _, c := range cases {
		_, err := parse.Query(c.src)
		if err == nil {
			t.Errorf("parse(%q) succeeded, want error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("parse(%q) error = %v, want fragment %q", c.src, err, c.frag)
		}
	}
}

func TestDatabaseParsing(t *testing.T) {
	d, err := parse.Database(`
		# Figure 1
		R(Alice | Bob)
		R(Alice | George)
		S(Bob | Alice)   # inline comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Fatalf("size = %d", d.Size())
	}
	if !d.Has(db.F("R", "Alice", "George")) {
		t.Error("missing fact")
	}
	r := d.Relation("R")
	if r.Key != 1 || r.Arity != 2 {
		t.Errorf("signature = [%d, %d]", r.Arity, r.Key)
	}
}

func TestDatabaseSignatureInference(t *testing.T) {
	d, err := parse.Database("T(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if r := d.Relation("T"); !r.AllKey() {
		t.Error("atom without | should be all-key")
	}
}

func TestDatabaseSignatureClash(t *testing.T) {
	_, err := parse.Database("R(a | b)\nR(a, b)")
	if err == nil || !strings.Contains(err.Error(), "redeclared") {
		t.Errorf("err = %v, want signature clash", err)
	}
}

func TestDatabaseErrors(t *testing.T) {
	if _, err := parse.Database("R(a | b) junk"); err == nil {
		t.Error("trailing junk should fail")
	}
	if _, err := parse.Database("R(a |"); err == nil {
		t.Error("unclosed atom should fail")
	}
}

func TestDatabaseLineNumbers(t *testing.T) {
	_, err := parse.Database("R(a | b)\nbroken(")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2", err)
	}
}

func TestDeclareQueryRelations(t *testing.T) {
	d := db.New()
	q := parse.MustQuery("R(x | y), !S(y | x)")
	if err := parse.DeclareQueryRelations(d, q); err != nil {
		t.Fatal(err)
	}
	if d.Relation("R") == nil || d.Relation("S") == nil {
		t.Error("relations not declared")
	}
	// Re-declaring with matching signature is fine.
	if err := parse.DeclareQueryRelations(d, q); err != nil {
		t.Errorf("idempotent declare failed: %v", err)
	}
}

func TestVariablesAreConstantsInFacts(t *testing.T) {
	// Lowercase arguments in facts are constants, not variables.
	d, err := parse.Database("R(alice | bob)")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Has(db.F("R", "alice", "bob")) {
		t.Error("lowercase fact arguments mishandled")
	}
}

func TestMustHelpersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustQuery should panic on bad input")
		}
	}()
	parse.MustQuery("r(")
}

// Database and Database.String agree on the syntax: whatever parses prints
// in a form that parses back to the same facts, including constants that
// need quotes, a '#' inside quotes, CRLF line ends and non-ASCII
// identifiers.
func TestDatabasePrintsWhatItParses(t *testing.T) {
	cases := []struct {
		src  string
		want db.Fact
		text string
	}{
		{"R('x#y' | c) # a comment", db.F("R", "x#y", "c"), "R('x#y' | c)\n"},
		{"R('a b' | c)", db.F("R", "a b", "c"), "R('a b' | c)\n"},
		{"R(a | 'b)')", db.F("R", "a", "b)"), "R(a | 'b)')\n"},
		{"R('' | c)", db.F("R", "", "c"), "R('' | c)\n"},
		{"R(a | b)\r\nR(a | c)\r\n", db.F("R", "a", "c"), "R(a | b)\nR(a | c)\n"},
		{"Été(naïve | 'smörgås bord')", db.F("Été", "naïve", "smörgås bord"), "Été(naïve | 'smörgås bord')\n"},
	}
	for _, c := range cases {
		d, err := parse.Database(c.src)
		if err != nil {
			t.Errorf("Database(%q): %v", c.src, err)
			continue
		}
		if !d.Has(c.want) {
			t.Errorf("Database(%q) lacks %v:\n%s", c.src, c.want, d)
		}
		if d.String() != c.text {
			t.Errorf("Database(%q).String() = %q, want %q", c.src, d.String(), c.text)
		}
		again, err := parse.Database(d.String())
		if err != nil || again.String() != d.String() {
			t.Errorf("Database(%q) does not round-trip: %v\n%s", c.src, err, again)
		}
		// FormatFact and String quote alike.
		line, err := parse.FormatFact(c.want, d.Relation(c.want.Rel).Key)
		if err != nil || !strings.Contains(d.String(), line+"\n") {
			t.Errorf("FormatFact(%v) = %q, %v; String() = %q", c.want, line, err, d.String())
		}
	}
	// A quote that never closes still fails, '#' or not.
	if _, err := parse.Database("R('x#y | c)"); err == nil || !strings.Contains(err.Error(), "unterminated quoted constant at offset 3") {
		t.Errorf("err = %v, want unterminated quoted constant at offset 3", err)
	}
}

// TestErrorTexts pins the exact error of each kind, from Database and
// from Query, where the one-pass scanner could get a line number or an
// offset wrong: non-ASCII space before the error, trailing space or a
// comment after it, a quote left open at a line break, CRLF and a lone
// '\r', and errors on line 3 or later.
func TestErrorTexts(t *testing.T) {
	facts := []struct{ src, err string }{
		{"R(a)\nR(b)\nr(c)\n", "line 3: parse: relation name \"r\" must start with an uppercase letter"},
		{"R(a)\n\n  R(b\n", "line 3: parse: expected ')' at offset 3"},
		{"R(a)\nR(b)\n\u00a0R(a, b)\n", "line 3: db: relation R redeclared with signature [2, 2] (was [1, 1])"},
		{"# c\nR(a)\n R( 'x  \nR(b)\n", "line 3: parse: unterminated quoted constant at offset 4"},
		{"R(a)\nR(b)\nR(a, 'b\n')\n", "line 3: parse: unterminated quoted constant at offset 6"},
		{"R(a)\nR(b)\nR(c) d # x\n", "line 3: trailing input after fact"},
		{"R(a)\nR(b)\nR(c  # x\n", "line 3: parse: expected ')' at offset 3"},
		{"R(a)\nR(b)\nR(c, \u3000)\n", "line 3: parse: expected term at offset 8"},
		{"R(a)\nR(b)\n\u3000R(c,\u00a0\n", "line 3: parse: expected term at offset 4"},
		{"R(a)\r\nR(b)\r\nR(c\r\n", "line 3: parse: expected ')' at offset 3"},
		{"R(a)\r\nR(b)\r\nR(c) x\r\n", "line 3: trailing input after fact"},
		{"\n\n\nR a\n", "line 4: parse: expected '(' at offset 2"},
		{"R(a)\nR(b)\n(a)\n", "line 3: parse: expected relation name at offset 0"},
		{"R(a)\nR(b)\nR(a|b|c)\n", "line 3: parse: atom R has two '|' separators"},
		{"R(a)\nR(b)\nR()\n", "line 3: parse: expected term at offset 2"},
		{"R(a)\nR(b)\nR(a) \u00a0 # trailing\nR(c\u00a0", "line 4: parse: expected ')' at offset 3"},
		{"R(a | b)\nR(a | c)\nR(x|y, z)", "line 3: db: relation R redeclared with signature [3, 1] (was [2, 1])"},
		{"R(a | b)\nR(a | c)\nR(x, y)", "line 3: db: relation R redeclared with signature [2, 2] (was [2, 1])"},
		{"\u00a0\u00a0R(a\u3000", "line 1: parse: expected ')' at offset 3"},
		{"\u3000R(\u00a0a\u3000b)\u3000# c\u3000", "line 1: parse: expected ')' at offset 8"},
		{"R(a)\nR(b)\nR('a#b' | c) x # y", "line 3: trailing input after fact"},
		{"R(a) \t\n  \n\t R(b,\n", "line 3: parse: expected term at offset 4"},
		{"R(a)\nR(b)\nÉ(a) x\n", "line 3: trailing input after fact"},
		{"R(a)\nR(b)\né(a)\n", "line 3: parse: relation name \"é\" must start with an uppercase letter"},
		{"R(a)\nR(b)\nR(a\u00a0b)\n", "line 3: parse: expected ')' at offset 5"},
		{"R(a)\nR(b)\nR(a)\nR(b)\nR(c)\nS('x\n", "line 6: parse: unterminated quoted constant at offset 3"},
		{"R(a)\nR(b)\nR(a)\u00a0\u00a0junk\u3000\u3000\n", "line 3: trailing input after fact"},
		{"R(a)\nR(b)\nR(a \u00a0\n", "line 3: parse: expected ')' at offset 3"},
		{"R(a)\rR(b)\n\nR(c", "line 1: trailing input after fact"},
		{"R(a)\nR(b)\nR(c)R(d)\n", "line 3: trailing input after fact"},
		{"R(a)\nR(b)\nR(c) # ok\nR(d, 'e#f'\n", "line 4: parse: expected ')' at offset 10"},
		{"R(a)\nR(b)\n   #only\nR(c|)\n", "line 4: parse: expected term at offset 4"},
	}
	for _, c := range facts {
		_, err := parse.Database(c.src)
		if err == nil || err.Error() != c.err {
			t.Errorf("Database(%q) = %v, want %s", c.src, err, c.err)
		}
		if _, err := parse.PerFactDatabase(c.src); err == nil || err.Error() != c.err {
			t.Errorf("PerFactDatabase(%q) = %v, want %s", c.src, err, c.err)
		}
	}
	queries := []struct{ src, err string }{
		{"", "parse: expected relation name at offset 0"},
		{"R(x", "parse: expected ')' at offset 3"},
		{"r(x)", "parse: relation name \"r\" must start with an uppercase letter"},
		{"R(x) S(y)", "parse: trailing input at offset 5"},
		{"R(x | y | z)", "parse: atom R has two '|' separators"},
		{"R('c", "parse: unterminated quoted constant at offset 3"},
		{"R(x),", "parse: expected relation name at offset 5"},
		{"not", "parse: expected relation name at offset 3"},
		{"!", "parse: expected relation name at offset 1"},
		{"R(x)\u00a0\u00a0,\u3000S(", "parse: expected term at offset 14"},
		{"R(x)\n, S(y", "parse: expected ')' at offset 10"},
		{"R x", "parse: expected '(' at offset 2"},
		{"R(x,)", "parse: expected term at offset 4"},
		{"R(x) # c", "parse: trailing input at offset 5"},
		{"R(x), R(y)", "schema: relation R occurs twice (self-join)"},
		{"R(x), !S(y)", "schema: negated atom S(y) violates safety: variables {y} do not all occur in a non-negated atom"},
		{"\u3000R(\u00a0x\u00a0", "parse: expected ')' at offset 10"},
		{"R(x | y),\r\n!S(y | x\r\n", "parse: expected ')' at offset 21"},
		{"not R(x), not", "parse: expected relation name at offset 13"},
		{"R(x) & !S(x) & ", "parse: expected relation name at offset 15"},
		{"R('a\nb' | x), S(x", "parse: expected ')' at offset 17"},
		{"É(x) junk", "parse: trailing input at offset 6"},
		{"é(x)", "parse: relation name \"é\" must start with an uppercase letter"},
		{"R(x)\u00a0\u00a0junk", "parse: trailing input at offset 8"},
	}
	for _, c := range queries {
		if _, err := parse.Query(c.src); err == nil || err.Error() != c.err {
			t.Errorf("Query(%q) = %v, want %s", c.src, err, c.err)
		}
	}
}
