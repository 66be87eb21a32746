package delta

import (
	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/store"
)

// changeCtx is the per-change decision context shared by every
// registration of one database: resolved dirty-block ids and hashes,
// the interned views of the previous and current snapshots, and the
// memoized per-(block, column) candidate-set checks. Everything is
// computed lazily — a change against a database whose registrations
// all skip on the relation test never interns anything.
type changeCtx struct {
	c    store.Change
	prev *db.Database
	cur  *db.Database
	// prevVersion is the version of prev: the carry rule applies to
	// verdicts settled on exactly that snapshot.
	prevVersion uint64

	inited  bool
	chainOK bool // prev and cur share one dictionary chain
	prevIx  *db.Interned
	curIx   *db.Interned

	keys   [][]int32 // per dirty block: resolved key ids (nil = unresolvable)
	maxID  []int32   // per dirty block: max key id
	hashes []uint64  // per dirty block: fo block hash

	candMemo map[candKey]bool
}

type candKey struct {
	block int
	col   int
}

// init resolves the frozen views and dirty-block ids once. Consecutive
// versions of one store share a dictionary, so ids stay stable for every
// later change and support set; chainOK is false only across a wholesale
// replacement (a reset to a database of another lineage).
func (cc *changeCtx) init() {
	if cc.inited {
		return
	}
	cc.inited = true
	if cc.prev == nil {
		return
	}
	cc.prevIx = cc.prev.Interned()
	cc.curIx = cc.cur.Interned()
	cc.chainOK = cc.prevIx.SameDict(cc.curIx)
	if !cc.chainOK {
		return
	}
	cc.keys = make([][]int32, len(cc.c.Blocks))
	cc.maxID = make([]int32, len(cc.c.Blocks))
	cc.hashes = make([]uint64, len(cc.c.Blocks))
	for i, b := range cc.c.Blocks {
		ids := make([]int32, len(b.Key))
		max := int32(-1)
		ok := true
		for j, v := range b.Key {
			id, found := cc.curIx.ID(v)
			if !found {
				ok = false
				break
			}
			ids[j] = id
			if id > max {
				max = id
			}
		}
		if !ok {
			cc.keys[i] = nil
			continue
		}
		cc.keys[i] = ids
		cc.maxID[i] = max
		cc.hashes[i] = fo.BlockHashIDs(fo.BlockSeed(b.Rel), ids)
	}
}

// carry applies the block-local carry rule to a co-keyed group whose
// verdict is settled on cc.prev. ok is false when the rule does not
// apply or leaves the verdict open; decide then takes over, and with no
// support recorded re-evaluates unless no relation of g was written.
func (cc *changeCtx) carry(g *regGroup) (verdict, ok bool) {
	if !g.coKeyed || cc.prev == nil || g.version != cc.prevVersion {
		return false, false
	}
	q := g.prep.Classification().Query
	keys, ok := DirtyKeys(q, cc.c)
	if !ok {
		return false, false
	}
	return Carry(q, g.verdict, keys, []*db.Database{cc.prev}, []*db.Database{cc.cur}, g.prep.CertainScratch)
}

// blocksOf returns the dirty blocks of g's relations: the trigger blocks
// of a flip event.
func (cc *changeCtx) blocksOf(g *regGroup) []store.BlockRef {
	var out []store.BlockRef
	for _, b := range cc.c.Blocks {
		if g.rels[b.Rel] {
			out = append(out, b)
		}
	}
	return out
}

// decide reports whether g must be re-evaluated for this change. A
// false result is a proof that g's verdict is unchanged — see the
// package comment for the replay argument each rule discharges.
func (cc *changeCtx) decide(g *regGroup) bool {
	touched := false
	for _, r := range cc.c.Rels {
		if g.rels[r] {
			touched = true
			break
		}
	}
	if !touched {
		// Rule 0: no relation the query mentions changed.
		return false
	}
	relBlocks := make(map[string]bool)
	for _, b := range cc.blocksOf(g) {
		relBlocks[b.Rel] = true
	}
	if g.sup == nil {
		// Relation-level mode: no support recorded (non-FO query,
		// compile fallback, or domain-quantifying program).
		return true
	}
	cc.init()
	if cc.prev == nil || !cc.chainOK || !g.sup.Ix.SameDict(cc.curIx) {
		// The dictionary chain broke somewhere between the recorded run
		// and this version; recorded ids are not comparable.
		return true
	}
	for _, r := range g.sup.AbsentRels {
		if relBlocks[r] {
			// The recorded run saw no relation at all here; any write to
			// it changes probe answers from the constant false.
			return true
		}
	}
	for _, r := range cc.c.Rels {
		if g.rels[r] && !relBlocks[r] {
			// A watched relation is reported touched without block
			// detail; nothing to intersect against.
			return true
		}
	}
	supN := g.sup.Ix.NumIDs()
	for i, b := range cc.c.Blocks {
		if !g.rels[b.Rel] {
			continue
		}
		ids := cc.keys[i]
		if ids == nil || cc.maxID[i] >= supN {
			// Rule 1: the block carries a value the recorded view did
			// not know. Unresolved constants got synthetic ids in the
			// recorded run, so hashes are not comparable — and a fresh
			// value can extend candidate lists.
			return true
		}
		if g.sup.Holds(cc.hashes[i]) {
			// Rule 3: the recorded run probed this block; its answer may
			// have changed.
			return true
		}
		for _, col := range g.candCols[b.Rel] {
			if cc.candChanged(i, b.Rel, ids, col) {
				// Rule 2: the block's delta changes the value set of a
				// candidate-source column.
				return true
			}
		}
	}
	return false
}

// candChanged reports whether dirty block i's row delta changes the
// distinct-value set of column col of rel — i.e. adds a value absent
// from the previous posting list or retires a value absent from the
// current one. Memoized per (block, column) across registrations.
func (cc *changeCtx) candChanged(i int, rel string, key []int32, col int) bool {
	k := candKey{block: i, col: col}
	if cc.candMemo == nil {
		cc.candMemo = make(map[candKey]bool)
	}
	if v, ok := cc.candMemo[k]; ok {
		return v
	}
	changed := cc.candChangedSlow(rel, key, col)
	cc.candMemo[k] = changed
	return changed
}

func (cc *changeCtx) candChangedSlow(rel string, key []int32, col int) bool {
	prevRel := cc.prevIx.Relation(rel)
	curRel := cc.curIx.Relation(rel)
	prevVals := blockColVals(prevRel, key, col)
	curVals := blockColVals(curRel, key, col)
	for v := range curVals {
		if !prevVals[v] && (prevRel == nil || !prevRel.PostingHas(col, v)) {
			return true // value entered the column's distinct set
		}
	}
	for v := range prevVals {
		if !curVals[v] && (curRel == nil || !curRel.PostingHas(col, v)) {
			return true // value left the column's distinct set
		}
	}
	return false
}

// blockColVals collects the distinct values of column col within one
// block of r.
func blockColVals(r *db.InternedRelation, key []int32, col int) map[int32]bool {
	if r == nil || col >= r.Arity {
		return nil
	}
	rows := r.BlockRows(key)
	if len(rows) == 0 {
		return nil
	}
	vals := make(map[int32]bool, len(rows))
	for _, row := range rows {
		vals[r.Row(int(row))[col]] = true
	}
	return vals
}
