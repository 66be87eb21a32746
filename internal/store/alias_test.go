package store

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/parse"
)

// overlaps reports whether s shares backing memory with body.
func overlaps(s, body string) bool {
	if s == "" || body == "" {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p+uintptr(len(s)) > lo && p < lo+uintptr(len(body))
}

// The scanner hands the loader substrings of the request text; the
// dictionary must copy what it keeps. Neither the parsed batch nor the
// store it is applied to (the create and insert handlers' calls) may keep
// a request body alive through a value or a relation name, and a value's
// id survives the removal of its last fact.
func TestDictionaryDoesNotAliasRequests(t *testing.T) {
	noAlias := func(d *db.Database, what string, bodies ...string) {
		t.Helper()
		ix := d.Interned()
		for _, body := range bodies {
			for id := int32(0); id < ix.NumIDs(); id++ {
				if overlaps(ix.Value(id), body) {
					t.Fatalf("%s: value %q (id %d) lives in a request body", what, ix.Value(id), id)
				}
			}
			for _, name := range d.RelationNames() {
				if overlaps(name, body) || overlaps(d.Relation(name).Name, body) {
					t.Fatalf("%s: relation name %q lives in a request body", what, name)
				}
				for _, f := range d.Facts(name) {
					if overlaps(f.Rel, body) {
						t.Fatalf("%s: fact %v names its relation from a request body", what, f)
					}
				}
			}
		}
	}

	// Built at run time, so that the bodies are heap strings like a
	// decoded request's.
	big := gen.FactsText(rand.New(rand.NewSource(3)), 2000) + "Lives('two words' | t1)\n"
	seed, err := parse.Database(big)
	if err != nil {
		t.Fatal(err)
	}
	noAlias(seed, "parsed create body", big)

	s := NewMem("alias", nil)
	defer s.Close()
	if _, err := s.ApplyDB(seed); err != nil {
		t.Fatal(err)
	}
	noAlias(s.Snapshot().DB, "store after create", big)

	one := strings.Join([]string{"Lives(", "newcomer", " | ", "nowhere", ")\n"}, "")
	batch, err := parse.Database(one)
	if err != nil {
		t.Fatal(err)
	}
	noAlias(batch, "parsed insert body", one)
	if c, err := s.ApplyDB(batch); err != nil || c.Applied != 1 {
		t.Fatalf("insert: %+v, %v", c, err)
	}
	snap := s.Snapshot().DB
	noAlias(snap, "store after insert", big, one)
	if !snap.Has(db.F("Lives", "newcomer", "nowhere")) {
		t.Fatal("inserted fact missing")
	}

	// Delete every fact mentioning the two new values, re-insert: same ids.
	before, ok := snap.Interned().ID("newcomer")
	if !ok {
		t.Fatal("inserted value has no id")
	}
	if _, err := s.WriteDB(nil, batch, true); err != nil {
		t.Fatal(err)
	}
	gone := s.Snapshot().DB.Interned()
	if id, ok := gone.ID("newcomer"); ok {
		for _, in := range gone.DomainIDs() {
			if in == id {
				t.Fatal("deleted value still in the active domain")
			}
		}
	}
	if _, err := s.ApplyDB(batch); err != nil {
		t.Fatal(err)
	}
	after, ok := s.Snapshot().DB.Interned().ID("newcomer")
	if !ok || after != before {
		t.Fatalf("re-inserted value got id %d (known %v), had %d", after, ok, before)
	}
}
