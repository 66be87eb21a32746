package parse

import (
	"fmt"
	"strings"

	"cqa/internal/db"
)

// PerFactDatabase is Database as it was before the bulk loader: each
// fact goes through DeclareRelation and Insert as its line is scanned.
// The tests hold Database to it.
func PerFactDatabase(src string) (*db.Database, error) {
	d := db.New()
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
		if err := d.DeclareRelation(rel, len(l.args), key); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := d.Insert(db.Fact{Rel: rel, Args: l.args}); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return d, nil
}
