package parse

import (
	"fmt"
	"sort"
	"strings"

	"cqa/internal/db"
)

// Rendering the database syntax back out: the inverse of Database, used
// by the shard router to re-render a partitioned write batch per owner
// shard, and by the facts-export endpoint. FormatDatabase ∘ Database is
// the identity on database content (facts and signatures).

// formatConst renders one constant argument: bare when every rune is an
// identifier rune, single-quoted otherwise. Constants that cannot be
// quoted (embedded quote or newline — the syntax has no escapes) are
// rejected.
func formatConst(v string) (string, error) {
	if db.BareConst(v) {
		return v, nil
	}
	if strings.ContainsAny(v, "'\n\r") {
		return "", fmt.Errorf("parse: constant %q cannot be rendered in the database syntax", v)
	}
	return "'" + v + "'", nil
}

// FormatFact renders one fact as a database line, key positions before
// the bar: R(a, b | c). An all-key fact has no bar.
func FormatFact(f db.Fact, key int) (string, error) {
	var b strings.Builder
	b.WriteString(f.Rel)
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			if i == key {
				b.WriteString(" | ")
			} else {
				b.WriteString(", ")
			}
		}
		c, err := formatConst(a)
		if err != nil {
			return "", err
		}
		b.WriteString(c)
	}
	b.WriteByte(')')
	return b.String(), nil
}

// FormatDatabase renders d as a multi-line database listing, relations
// sorted by name and each relation's facts in Database.Facts order
// (sorted argument by argument), that Database parses back to equal
// content. Relations without facts cannot be expressed in the syntax
// (signatures are inferred from facts) and are skipped; callers that
// must preserve empty relations ship the signature list separately.
func FormatDatabase(d *db.Database) (string, error) {
	names := d.RelationNames()
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		r := d.Relation(name)
		for _, f := range d.Facts(name) {
			line, err := FormatFact(f, r.Key)
			if err != nil {
				return "", err
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}
