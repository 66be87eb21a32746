package delta

import (
	"slices"

	"cqa/internal/db"
	"cqa/internal/schema"
	"cqa/internal/store"
)

// The block-local carry rule: the one rule, watched entry or not, beyond
// "no mentioned relation was written" and re-evaluation.
//
// For a co-keyed query q (schema.Query.CoKey) certainty is a disjunction
// over keys, CERTAINTY(q, D) = ∨ₖ CERTAINTY(q, D|ₖ), and a change whose
// dirty blocks of q's relations have keys K rewrites only the disjuncts
// of K. Write o for the verdict before the change, a for ∨ₖ∈K on the
// database before it, b for ∨ₖ∈K after it, and rest for the untouched
// disjuncts, so o = a ∨ rest and the new verdict is b ∨ rest:
//
//	b        ⇒ true
//	¬o       ⇒ false   (rest is false, and b is)
//	o ∧ ¬a   ⇒ true    (rest is true)
//	o ∧ a ∧ ¬b         unknown: K may have held the only witness
//
// a and b are decided on sub-databases of a few facts each, one per key,
// so a one-block write costs a few block look-ups and tiny evaluations
// instead of a re-run over every block of the database. Only the last
// case falls back to that re-run.

// maxCarryBlocks bounds the dirty blocks of a change the carry rule
// takes on. Each costs every affected query up to two sub-database
// evaluations, paid by the writer; past a few dozen, one lazy
// re-evaluation by the next reader is the cheaper side.
const maxCarryBlocks = 64

// DirtyKeys returns the distinct keys of c's dirty blocks that can hold
// a valuation of q: blocks of relations q mentions whose key agrees
// with the constants of q's key tuple. No keys means c cannot have
// changed q's verdict. ok is false when the carry rule does not apply —
// q is not co-keyed, c reports a relation of q as touched without block
// detail (or with keys of another length than q's), or c is too large —
// and the caller must fall back to its relation-level path.
func DirtyKeys(q schema.Query, c store.Change) (keys [][]string, ok bool) {
	pattern, coKeyed := q.CoKey()
	if !coKeyed || len(c.Blocks) > maxCarryBlocks {
		return nil, false
	}
	for _, b := range c.Blocks {
		if _, mentioned := q.AtomByRel(b.Rel); !mentioned {
			continue
		}
		if len(b.Key) != len(pattern) {
			return nil, false
		}
		match := true
		for j, t := range pattern {
			if !t.IsVar && t.Name != b.Key[j] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if !slices.ContainsFunc(keys, func(k []string) bool { return slices.Equal(k, b.Key) }) {
			keys = append(keys, b.Key)
		}
	}
	for _, r := range c.Rels {
		if _, mentioned := q.AtomByRel(r); mentioned && !hasBlockOf(c, r) {
			return nil, false
		}
	}
	return keys, true
}

func hasBlockOf(c store.Change, rel string) bool {
	for _, b := range c.Blocks {
		if b.Rel == rel {
			return true
		}
	}
	return false
}

// Carry decides the co-keyed query q after a change from its verdict
// before it. keys are DirtyKeys of the change; prev and cur are the
// database before and after it; certain decides q on a sub-database and
// is not called when keys is empty. known is false in
// the one case the rule leaves open, and when a stored relation's
// signature is not the one q declares.
func Carry(q schema.Query, old bool, keys [][]string, prev, cur *db.Database, certain func(*db.Database) bool) (verdict, known bool) {
	if len(keys) == 0 {
		return old, true
	}
	for _, k := range keys {
		sub, ok := restrict(q, k, cur)
		if !ok {
			return false, false
		}
		if certain(sub) {
			return true, true
		}
	}
	if !old {
		return false, true
	}
	for _, k := range keys {
		sub, ok := restrict(q, k, prev)
		if !ok {
			return false, false
		}
		if certain(sub) {
			return false, false
		}
	}
	return true, true
}

// restrict builds D|ₖ: the facts keyed key of every relation q mentions,
// under q's signatures. It fails when a database declares one of them
// differently, where blocks are not what q's key tuple speaks of.
func restrict(q schema.Query, key []string, d *db.Database) (*db.Database, bool) {
	sub := db.New()
	for _, a := range q.Atoms() {
		if err := sub.DeclareRelation(a.Rel, a.Arity(), a.Key); err != nil {
			return nil, false
		}
		r := d.Relation(a.Rel)
		if r == nil {
			continue
		}
		if r.Arity != a.Arity() || r.Key != a.Key {
			return nil, false
		}
		for _, f := range d.Block(a.Rel, key) {
			if err := sub.Insert(f); err != nil {
				return nil, false
			}
		}
	}
	return sub, true
}
