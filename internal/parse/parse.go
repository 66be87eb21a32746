// Package parse implements the concrete text syntax used by the command
// line tools, examples, and tests.
//
// Query syntax (one query per string):
//
//	R(x | y), !S(y | x)
//
// Literals are separated by commas (an optional `&` is also accepted).
// `!` or `not` negates an atom. Inside an atom, the terms before the `|`
// are the primary-key positions; an atom without `|` is all-key.
// Identifiers starting with a lowercase letter are variables; single-quoted
// strings ('c') and numbers are constants.
//
// Database syntax (one fact per line):
//
//	R(a | b)
//	S(b | 'two words')    # trailing comments are allowed
//
// All fact arguments are constants; one that is not a plain identifier
// (empty, or holding a space, a bracket, a '#', …) is single-quoted, and a
// '#' between quotes belongs to the constant rather than starting a
// comment. There are no escapes: a constant cannot contain a quote or a
// line break. Signatures are inferred from the first fact of each relation
// and must stay consistent. db.Database.String and FormatDatabase print
// this syntax back.
package parse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"cqa/internal/db"
	"cqa/internal/schema"
)

// scanner reads the tokens of one query or one fact line straight off the
// source string: ASCII bytes are classified directly, anything else is
// decoded with utf8 and classified with unicode, and tokens are substrings
// of the source (nothing is copied). Offsets in error messages are byte
// offsets into the scanned string — the character offsets they used to be
// for ASCII input, larger after a non-ASCII character.
type scanner struct {
	src string
	pos int
	// args and quoted hold the terms of the atom scanned last: the text of
	// each, and whether it was written as a quoted constant. Reused from
	// atom to atom.
	args   []string
	quoted []bool
}

// skipSpace steps over white space. Most calls find a token right away,
// so that check is kept small enough to be inlined.
func (l *scanner) skipSpace() {
	if l.pos < len(l.src) && l.src[l.pos]-'!' < utf8.RuneSelf-'!' { // ASCII, not space
		return
	}
	l.skipSpaceLoop()
}

func (l *scanner) skipSpaceLoop() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c < utf8.RuneSelf {
			if c != ' ' && (c < '\t' || c > '\r') {
				return
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		l.pos += size
	}
}

func (l *scanner) eof() bool {
	l.skipSpace()
	return l.pos >= len(l.src)
}

// consume skips space and steps over the delimiter c if it comes next.
func (l *scanner) consume(c byte) bool {
	l.skipSpace()
	if l.pos < len(l.src) && l.src[l.pos] == c {
		l.pos++
		return true
	}
	return false
}

func (l *scanner) expect(c byte) error {
	if !l.consume(c) {
		return fmt.Errorf("parse: expected %q at offset %d", rune(c), l.pos)
	}
	return nil
}

// identASCII marks the ASCII bytes that may occur in an identifier.
var identASCII = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c == '_' || '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z'
	}
	return t
}()

// ident reads an identifier or number; returns "" when none is present.
func (l *scanner) ident() string {
	l.skipSpace()
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c < utf8.RuneSelf {
			if !identASCII[c] {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !db.IsIdentRune(r) {
			break
		}
		l.pos += size
	}
	return l.src[start:l.pos]
}

func firstRune(s string) rune {
	r, _ := utf8.DecodeRuneInString(s)
	return r
}

// term reads one term into args/quoted.
func (l *scanner) term() error {
	if l.consume('\'') {
		end := strings.IndexByte(l.src[l.pos:], '\'')
		if end < 0 {
			return fmt.Errorf("parse: unterminated quoted constant at offset %d", l.pos)
		}
		l.args = append(l.args, l.src[l.pos:l.pos+end])
		l.quoted = append(l.quoted, true)
		l.pos += end + 1
		return nil
	}
	id := l.ident()
	if id == "" {
		return fmt.Errorf("parse: expected term at offset %d", l.pos)
	}
	l.args = append(l.args, id)
	l.quoted = append(l.quoted, false)
	return nil
}

// atom scans Rel(t1, ..., tk | tk+1, ..., tn), leaving the terms in
// args/quoted, and returns the relation name and the number of key
// positions.
func (l *scanner) atom() (rel string, key int, err error) {
	l.args, l.quoted = l.args[:0], l.quoted[:0]
	rel = l.ident()
	if rel == "" {
		return "", 0, fmt.Errorf("parse: expected relation name at offset %d", l.pos)
	}
	if !unicode.IsUpper(firstRune(rel)) {
		return "", 0, fmt.Errorf("parse: relation name %q must start with an uppercase letter", rel)
	}
	if err := l.expect('('); err != nil {
		return "", 0, err
	}
	key = -1
	for {
		if err := l.term(); err != nil {
			return "", 0, err
		}
		if l.consume(',') {
			continue
		}
		if l.consume('|') {
			if key != -1 {
				return "", 0, fmt.Errorf("parse: atom %s has two '|' separators", rel)
			}
			key = len(l.args)
			continue
		}
		break
	}
	if err := l.expect(')'); err != nil {
		return "", 0, err
	}
	if key == -1 {
		key = len(l.args) // all-key
	}
	return rel, key, nil
}

// Query parses a query string and validates it as sjfBCQ¬.
func Query(src string) (schema.Query, error) {
	l := &scanner{src: src}
	var lits []schema.Literal
	for {
		neg := false
		if l.consume('!') {
			neg = true
		} else {
			// Allow the keyword form "not R(...)".
			save := l.pos
			if id := l.ident(); id == "not" {
				neg = true
			} else {
				l.pos = save
			}
		}
		rel, key, err := l.atom()
		if err != nil {
			return schema.Query{}, err
		}
		terms := make([]schema.Term, len(l.args))
		for i, a := range l.args {
			// Identifiers starting with a lowercase letter are variables;
			// quoted strings, digits and other identifiers are constants.
			if !l.quoted[i] && unicode.IsLower(firstRune(a)) {
				terms[i] = schema.Var(a)
			} else {
				terms[i] = schema.Const(a)
			}
		}
		lits = append(lits, schema.Literal{Neg: neg, Atom: schema.Atom{Rel: rel, Key: key, Terms: terms}})
		if l.consume(',') || l.consume('&') {
			continue
		}
		break
	}
	if !l.eof() {
		return schema.Query{}, fmt.Errorf("parse: trailing input at offset %d", l.pos)
	}
	q := schema.Query{Lits: lits}
	if err := q.Validate(); err != nil {
		return schema.Query{}, err
	}
	return q, nil
}

// MustQuery parses a query and panics on error; for tests and examples.
func MustQuery(src string) schema.Query {
	q, err := Query(src)
	if err != nil {
		panic(err)
	}
	return q
}

// cutComment returns line without its trailing `# comment`. A '#' between
// single quotes belongs to the constant it is in.
func cutComment(line string) string {
	if strings.IndexByte(line, '#') < 0 {
		return line
	}
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\'':
			inQuote = !inQuote
		case '#':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

// Database parses a multi-line database listing. Relation signatures are
// inferred from the facts; every argument is treated as a constant. The
// facts go through a db.Loader, which gives the database that inserting
// them one by one would. The database copies what it keeps, so it does
// not hold on to src.
func Database(src string) (*db.Database, error) {
	ld := db.NewLoader()
	var l scanner
	for lineNo := 1; src != ""; lineNo++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		line = strings.TrimSpace(cutComment(line))
		if line == "" {
			continue
		}
		l.src, l.pos = line, 0
		rel, key, err := l.atom()
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !l.eof() {
			return nil, fmt.Errorf("line %d: trailing input after fact", lineNo)
		}
		// Variables in fact position are read as constants.
		if err := ld.Fact(rel, key, l.args); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return ld.Database(), nil
}

// MustDatabase parses a database and panics on error; for tests and
// examples.
func MustDatabase(src string) *db.Database {
	d, err := Database(src)
	if err != nil {
		panic(err)
	}
	return d
}

// DeclareQueryRelations declares in d every relation that q mentions, so
// that empty relations are still known to the evaluator. Signatures must
// agree with any facts already inserted.
func DeclareQueryRelations(d *db.Database, q schema.Query) error {
	for _, a := range q.Atoms() {
		if err := d.DeclareRelation(a.Rel, a.Arity(), a.Key); err != nil {
			return err
		}
	}
	return nil
}
