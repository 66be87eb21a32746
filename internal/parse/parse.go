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
// and must stay consistent. A text is read in one pass, each term interned
// as it is scanned; an error gives the line and, where it has one, the
// byte offset into the line's text. db.Database.String and FormatDatabase
// print this syntax back.
package parse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"cqa/internal/db"
	"cqa/internal/schema"
)

// scanner reads the tokens of a query, or of every fact line of a
// database text, straight off the source string in one pass: a 256-entry
// table classifies each byte, a byte of a multi-byte character sends the
// scanner to utf8 and unicode, and tokens are substrings of the source
// (nothing is copied). In a query '\n' is white space; in a database text
// it ends the fact, and a '#' outside quotes starts a comment running to
// it. Offsets in error messages are byte offsets into the query, or into
// the fact's line without its comment and surrounding space. The helpers
// take and return positions, which atom's loop keeps in a register.
type scanner struct {
	src string
	pos int
	// ld is the loader a database text's terms go to, nil for a query;
	// line is where the current fact line's text starts.
	ld   *db.Loader
	line int
	// The terms of the atom scanned last, reused from atom to atom: for a
	// query the text of each and whether it was quoted, for a fact line
	// the dictionary id of each.
	args   []string
	quoted []bool
	ids    []int32
}

// Byte classes. A byte of a multi-byte character is cHigh alone.
const (
	cIdent   = 1 << iota // may occur in an identifier: ASCII letters, digits, '_'
	cSpace               // ASCII white space other than '\n'
	cNewline             // '\n'
	cHigh                // ≥ utf8.RuneSelf
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = cHigh
		case c == '_' || '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z':
			t[c] = cIdent
		case c == '\n':
			t[c] = cNewline
		case c == ' ' || '\t' <= c && c <= '\r':
			t[c] = cSpace
		}
	}
	return t
}()

// skip returns the position after the white space at pos, space being the
// class of ASCII bytes that count as white space. Most calls find a token
// right away, so that check is kept small enough to be inlined.
func skip(src string, pos int, space uint8) int {
	if pos < len(src) && byteClass[src[pos]]&(cSpace|cNewline|cHigh) == 0 {
		return pos
	}
	return skipLoop(src, pos, space)
}

// skipLoop is skip's loop, kept out of line so that skip inlines.
//
//go:noinline
func skipLoop(src string, pos int, space uint8) int { return span(src, pos, space, unicode.IsSpace) }

// identEnd returns the end of the identifier or number at pos, if any.
func identEnd(src string, pos int) int { return span(src, pos, cIdent, db.IsIdentRune) }

// span returns the end of the run at pos of bytes of class and runes in accepts.
func span(src string, pos int, class uint8, in func(rune) bool) int {
	for pos < len(src) {
		c := byteClass[src[pos]]
		if c&class != 0 {
			pos++
			continue
		}
		if c != cHigh {
			break
		}
		r, size := utf8.DecodeRuneInString(src[pos:])
		if !in(r) {
			break
		}
		pos += size
	}
	return pos
}

// skipSpace steps over the white space of a query.
func (l *scanner) skipSpace() { l.pos = skip(l.src, l.pos, cSpace|cNewline) }

// at reports whether the byte c comes next, without skipping space.
func (l *scanner) at(c byte) bool { return l.pos < len(l.src) && l.src[l.pos] == c }

func (l *scanner) eof() bool {
	l.skipSpace()
	return l.pos >= len(l.src)
}

// endOfLine skips space and reports whether the fact line ends here, at
// '\n', at the end of the text or at a comment, which it steps over.
func (l *scanner) endOfLine() bool {
	if l.at('\n') {
		return true
	}
	l.pos = skip(l.src, l.pos, cSpace)
	if l.at('#') {
		comment, _, _ := strings.Cut(l.src[l.pos:], "\n")
		l.pos += len(comment)
	}
	return l.pos >= len(l.src) || l.src[l.pos] == '\n'
}

// consume skips space and steps over the delimiter c if it comes next.
func (l *scanner) consume(c byte) bool {
	l.skipSpace()
	if l.at(c) {
		l.pos++
		return true
	}
	return false
}

// errAt reports what went wrong at pos.
func (l *scanner) errAt(pos int, what string) error {
	return fmt.Errorf("parse: %s at offset %d", what, l.offset(pos))
}

// offset is pos as error messages give it. On a fact line the scanner may
// stand past the last token, on trailing space or a comment: there the
// offset is the length of the line's text.
func (l *scanner) offset(pos int) int {
	if l.ld == nil {
		return pos
	}
	line, _, _ := strings.Cut(l.src[l.line:], "\n")
	return min(pos-l.line, len(strings.TrimRightFunc(cutComment(line), unicode.IsSpace)))
}

func firstRune(s string) rune {
	r, _ := utf8.DecodeRuneInString(s)
	return r
}

// atom scans Rel(t1, ..., tk | tk+1, ..., tn), leaving the terms in
// args/quoted or ids, and returns the relation name and the number of key
// positions. A term is a quoted constant, which on a fact line must close
// before the line ends, or an identifier.
func (l *scanner) atom() (rel string, key int, err error) {
	l.args, l.quoted, l.ids = l.args[:0], l.quoted[:0], l.ids[:0]
	src, space, arity := l.src, uint8(cSpace|cNewline), 0
	if l.ld != nil {
		space = cSpace // '\n' ends the fact
	}
	pos := skip(src, l.pos, space)
	end := identEnd(src, pos)
	if rel = src[pos:end]; rel == "" {
		return "", 0, l.errAt(pos, "expected relation name")
	}
	if c := rel[0]; (c < 'A' || c > 'Z') && !unicode.IsUpper(firstRune(rel)) {
		return "", 0, fmt.Errorf("parse: relation name %q must start with an uppercase letter", rel)
	}
	if pos = skip(src, end, space); pos >= len(src) || src[pos] != '(' {
		return "", 0, l.errAt(pos, "expected '('")
	}
	key = -1
	for {
		var v string
		pos = skip(src, pos+1, space) // past '(', ',' or '|'
		quoted := pos < len(src) && src[pos] == '\''
		if quoted {
			pos++
			end = strings.IndexByte(src[pos:], '\'')
			if end < 0 || l.ld != nil && strings.IndexByte(src[pos:pos+end], '\n') >= 0 {
				return "", 0, l.errAt(pos, "unterminated quoted constant")
			}
			v, pos = src[pos:pos+end], pos+end+1
		} else if end = identEnd(src, pos); end > pos {
			v, pos = src[pos:end], end
		} else {
			return "", 0, l.errAt(pos, "expected term")
		}
		if l.ld != nil {
			l.ids = append(l.ids, l.ld.ID(v))
		} else {
			l.args = append(l.args, v)
			l.quoted = append(l.quoted, quoted)
		}
		arity++
		if pos = skip(src, pos, space); pos < len(src) && src[pos] == ',' {
			continue
		}
		if pos < len(src) && src[pos] == '|' {
			if key != -1 {
				return "", 0, fmt.Errorf("parse: atom %s has two '|' separators", rel)
			}
			key = arity
			continue
		}
		break
	}
	if pos >= len(src) || src[pos] != ')' {
		return "", 0, l.errAt(pos, "expected ')'")
	}
	l.pos = pos + 1
	if key == -1 {
		key = arity // all-key
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
			start := skip(src, l.pos, cSpace|cNewline)
			if end := identEnd(src, start); src[start:end] == "not" {
				l.pos, neg = end, true
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
		return schema.Query{}, l.errAt(l.pos, "trailing input")
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
// text is scanned once, each term going to a db.Loader's dictionary as it
// is read, and the loader gives the database that inserting the facts
// one by one would. The database copies what it keeps, so it does not
// hold on to src. The loader is sized for a fact per ')', so blank lines
// and comments cost nothing, but for no more facts than the text can
// hold: the shortest, R(a) and its '\n', takes 5 bytes.
func Database(src string) (*db.Database, error) {
	ld := db.NewLoader(min(strings.Count(src, ")"), len(src)/5))
	l := scanner{src: src, ld: ld}
	for ; l.pos < len(src); l.pos++ { // steps over the '\n' ending each line
		if l.endOfLine() {
			continue
		}
		l.line = l.pos
		// Variables in fact position are read as constants.
		rel, key, err := l.atom()
		if err == nil && !l.endOfLine() {
			err = fmt.Errorf("trailing input after fact")
		}
		if err == nil {
			err = ld.Declare(rel, len(l.ids), key)
		}
		if err == nil {
			err = ld.Add(rel, l.ids)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", 1+strings.Count(src[:l.line], "\n"), err)
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
