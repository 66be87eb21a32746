package delta

import (
	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/store"
)

// changeCtx is the per-change decision context shared by every
// subscribed entry of one database: resolved dirty-block ids and
// hashes, the interned views of the previous and current snapshots, and
// the memoized per-(block, column) candidate-set checks. Everything is
// computed lazily — a change whose entries all advance or carry never
// builds a union or interns anything.
type changeCtx struct {
	c    store.Change
	prev View
	cur  View

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
	cc.prevIx = cc.prev.Union().Interned()
	cc.curIx = cc.cur.Union().Interned()
	cc.chainOK = cc.prevIx.SameDict(cc.curIx)
	if !cc.chainOK {
		return
	}
	cc.keys = make([][]int32, len(cc.c.Blocks))
	cc.maxID = make([]int32, len(cc.c.Blocks))
	cc.hashes = make([]uint64, len(cc.c.Blocks))
	for i, b := range cc.c.Blocks {
		ids, hi := make([]int32, len(b.Key)), int32(-1)
		for j, v := range b.Key {
			id, found := cc.curIx.ID(v)
			if !found {
				ids = nil
				break
			}
			ids[j], hi = id, max(hi, id)
		}
		if ids != nil {
			cc.keys[i], cc.maxID[i] = ids, hi
			cc.hashes[i] = fo.BlockHashIDs(fo.BlockSeed(b.Rel), ids)
		}
	}
}

// decide reports whether the subscribed entry g, written to by this
// change, must be re-evaluated. A false result is a proof that g's
// verdict is unchanged — see the package comment for the replay
// argument each rule discharges. (Rule 0, no relation the query
// mentions written, is Advance's own: such entries never get here.)
func (cc *changeCtx) decide(g *subscription) bool {
	if g.sup == nil {
		// Relation-level mode: no support recorded (non-FO query,
		// compile fallback, or domain-quantifying program).
		return true
	}
	relBlocks := make(map[string]bool)
	for _, b := range cc.c.Blocks {
		if g.rels[b.Rel] {
			relBlocks[b.Rel] = true
		}
	}
	cc.init()
	if !cc.chainOK || !g.sup.Ix.SameDict(cc.curIx) {
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
