package parse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"cqa/internal/db"
)

// PerFactDatabase is Database as it was before the bulk loader: each
// line is cut from the text, stripped of its comment and space and
// scanned on its own, and each fact goes through DeclareRelation and
// Insert. The tests hold Database to it, so it scans with lineScanner,
// not with the scanner Database uses.
func PerFactDatabase(src string) (*db.Database, error) {
	d := db.New()
	var l lineScanner
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
		if err := d.DeclareRelation(rel, len(l.args), key); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := d.Insert(db.Fact{Rel: rel, Args: l.args}); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return d, nil
}

// lineScanner scans one fact line as Database did before it read the
// text in one pass, written out separately so that a change to scanner
// shows up as a difference: it reads a line already cut from the text,
// so offsets in its errors are offsets into that line.
type lineScanner struct {
	src    string
	pos    int
	args   []string
	quoted []bool
}

func (l *lineScanner) skipSpace() {
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

func (l *lineScanner) eof() bool {
	l.skipSpace()
	return l.pos >= len(l.src)
}

func (l *lineScanner) consume(c byte) bool {
	l.skipSpace()
	if l.pos < len(l.src) && l.src[l.pos] == c {
		l.pos++
		return true
	}
	return false
}

func (l *lineScanner) expect(c byte) error {
	if !l.consume(c) {
		return fmt.Errorf("parse: expected %q at offset %d", rune(c), l.pos)
	}
	return nil
}

func (l *lineScanner) ident() string {
	l.skipSpace()
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !db.IsIdentRune(r) {
			break
		}
		l.pos += size
	}
	return l.src[start:l.pos]
}

func (l *lineScanner) term() error {
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

func (l *lineScanner) atom() (rel string, key int, err error) {
	l.args, l.quoted = l.args[:0], l.quoted[:0]
	rel = l.ident()
	if rel == "" {
		return "", 0, fmt.Errorf("parse: expected relation name at offset %d", l.pos)
	}
	if r, _ := utf8.DecodeRuneInString(rel); !unicode.IsUpper(r) {
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
		key = len(l.args)
	}
	return rel, key, nil
}
