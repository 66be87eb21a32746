package db

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// This file implements the frozen, read-only view of a Database that the
// compiled first-order evaluator runs against. The database is stored
// dictionary-encoded already (db.go, rows.go), so freezing a relation is a
// matter of sharing its id rows and tables (the relation copies them out on
// its next write, Relation.own) and deriving per-column posting lists (the
// sorted distinct ids of each column); the active domain becomes a sorted
// []int32. See docs/EVAL.md.
//
// An Interned is immutable after construction and safe for unbounded
// concurrent readers. A relation's frozen view is memoized on the relation
// until the next write to it, so the relations a store write leaves alone
// (shared by pointer between versions, CloneCOW) keep one view — and the
// lazy indexes built on it — across versions. Ids come from the
// dictionary the database's lineage shares, in order of first occurrence;
// they are stable across versions but carry no meaning: verdicts must not
// depend on id order, and nothing here sorts values.

// InternedRelation is the compiled-evaluator view of one relation: its
// rows and tables as of the freeze, and per-column posting lists.
// Read-only after construction. It holds no reference to the database it
// was frozen from.
type InternedRelation struct {
	Arity int
	Key   int

	rows

	postings [][]int32 // per column: sorted distinct ids

	// maxBlock is the size of the largest block. The planner consults it
	// (and the block count) to choose and justify an evaluation strategy
	// without touching the mutable database.
	maxBlock int

	// holeIdx is the bitmap evaluator's lazy index (see bitset.go): per
	// hole column a flat table of the rows grouped by rest-of-row, with
	// each group's hole values as an IDSet. Built at most once per view
	// behind an atomic pointer; racing readers may each build identical
	// indexes with the last published winning.
	holeIdx []atomic.Pointer[holeIndex]
}

// Rows returns the number of stored tuples.
func (r *InternedRelation) Rows() int { return r.n }

// NumBlocks returns the number of blocks (maximal key-equal fact groups)
// the relation had when this view was frozen.
func (r *InternedRelation) NumBlocks() int { return r.nblocks }

// MaxBlockSize returns the size of the relation's largest block (0 for an
// empty relation). MaxBlockSize == 1 means the relation is consistent: it
// contributes exactly one choice to every repair.
func (r *InternedRelation) MaxBlockSize() int { return r.maxBlock }

// Row returns the i-th interned tuple as a shared subslice of the
// relation's row-major tuple array. The caller must not mutate it. Row
// order is deterministic for a given insert/remove history but not
// sorted.
func (r *InternedRelation) Row(i int) []int32 { return r.row(i) }

// Posting returns the sorted distinct ids of column col. The caller must
// not mutate the result.
func (r *InternedRelation) Posting(col int) []int32 { return r.postings[col] }

// PostingHas reports whether id occurs in column col of some stored
// tuple (binary search over the sorted posting list).
func (r *InternedRelation) PostingHas(col int, id int32) bool {
	p := r.postings[col]
	i := sort.Search(len(p), func(i int) bool { return p[i] >= id })
	return i < len(p) && p[i] == id
}

// Has reports whether the interned tuple args is a fact of the relation.
// It performs no allocation.
func (r *InternedRelation) Has(args []int32) bool { return r.find(args) >= 0 }

// Find returns the row holding the interned tuple args, or -1. It
// performs no allocation.
func (r *InternedRelation) Find(args []int32) int { return r.find(args) }

// BlockTail returns the last-inserted row of the block whose key prefix
// is key, or -1 when there is none. The row names the block within this
// view; NextInBlock walks the block from it. No allocation.
func (r *InternedRelation) BlockTail(key []int32) int {
	_, tail := r.findBlock(key)
	return tail
}

// NextInBlock returns the row after row i in its block, in insertion
// order and circularly: the block's first row follows its tail, so a
// row of a singleton block follows itself.
func (r *InternedRelation) NextInBlock(i int) int { return int(r.next[i]) }

// freeze returns the relation's frozen view, building and memoizing it
// when a write dropped the last one.
func (r *Relation) freeze() *InternedRelation {
	if ir := r.frozen.Load(); ir != nil {
		return ir
	}
	ir := &InternedRelation{Arity: r.Arity, Key: r.Key, rows: r.rows}
	ir.holeIdx = make([]atomic.Pointer[holeIndex], r.Arity)
	for _, e := range ir.blocks {
		if e != 0 {
			ir.maxBlock = max(ir.maxBlock, ir.blockSize(int(e-1)))
		}
	}
	// Every id stored in the relation was interned before its row was
	// inserted, so the dictionary's current size bounds them all.
	mark := make([]uint64, (len(r.dict.snapshot())+63)>>6)
	ir.postings = make([][]int32, r.Arity)
	for col := range ir.postings {
		ir.postings[col] = ir.posting(col, mark)
	}
	r.frozen.Store(ir)
	return ir
}

// posting returns the sorted distinct ids of column col. mark is an
// all-zero bitmap spanning every stored id and is all-zero again on
// return.
func (s *rows) posting(col int, mark []uint64) []int32 {
	distinct := 0
	for i := col; i < len(s.data); i += s.arity {
		if markID(mark, s.data[i]) {
			distinct++
		}
	}
	return sweep(mark, distinct)
}

// markID sets id's bit, reporting whether it was clear.
func markID(mark []uint64, id int32) bool {
	w, b := id>>6, uint64(1)<<(uint(id)&63)
	fresh := mark[w]&b == 0
	mark[w] |= b
	return fresh
}

// sweep returns the ids marked in the bitmap, ascending, and clears it.
func sweep(mark []uint64, count int) []int32 {
	out := make([]int32, 0, count)
	for w, word := range mark {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
		}
		mark[w] = 0
	}
	return out
}

// Interned is an immutable dictionary-encoded view of a Database at one
// point in time. It is safe for unbounded concurrent readers.
type Interned struct {
	dc *dict
	// vals snapshots the dictionary when the view was frozen: every id
	// used by this view is < len(vals), and vals is stable even as the
	// shared dictionary grows for later versions.
	vals []string

	rels   map[string]*InternedRelation
	domain []int32 // sorted ids occurring in the database

	// domainSet lazily memoizes the active domain as an IDSet for the
	// bitmap evaluator (bitset.go).
	domainSet atomic.Pointer[IDSet]
}

// Intern freezes d: every relation's memoized frozen view, or a fresh one
// where a write dropped it, under one snapshot of the dictionary. d must not be mutated while Intern runs.
func Intern(d *Database) *Interned {
	ix := &Interned{dc: d.dict, rels: make(map[string]*InternedRelation, len(d.rels))}
	for name, r := range d.rels {
		ix.rels[name] = r.freeze()
	}
	// After the relations: the snapshot then covers every id they hold.
	ix.vals = d.dict.snapshot()

	// Active domain: ids of every value occurring in some column, in id
	// order. Ids are dense, so a bitmap replaces hashing and sorting.
	mark := make([]uint64, (len(ix.vals)+63)>>6)
	size := 0
	for _, ir := range ix.rels {
		for _, p := range ir.postings {
			for _, id := range p {
				if markID(mark, id) {
					size++
				}
			}
		}
	}
	ix.domain = sweep(mark, size)
	return ix
}

// InternNext returns the frozen view of next, the successor of the
// database prev was frozen from. Relations that next shares by pointer
// with its predecessor (the copy-on-write sharing of the store layer)
// keep their memoized view and the dictionary is the lineage's, so ids
// are stable across the chain and only written relations are copied —
// which Intern does by itself; prev is not consulted. next must not be
// mutated while InternNext runs, and the shared relations must be
// immutable (the CloneCOW contract).
func InternNext(prev *Interned, next *Database) *Interned { return Intern(next) }

// NumIDs returns the dictionary size this view was frozen against; every
// id stored in the view is < NumIDs. Synthetic ids handed out by the
// compiler for constants outside the dictionary start at NumIDs.
func (ix *Interned) NumIDs() int32 { return int32(len(ix.vals)) }

// ID returns the id of a constant known to this view's dictionary
// snapshot.
func (ix *Interned) ID(v string) (int32, bool) {
	ix.dc.mu.Lock()
	id := ix.dc.id(v)
	ix.dc.mu.Unlock()
	if id < 0 || int(id) >= len(ix.vals) {
		return 0, false
	}
	return id, true
}

// Value returns the constant for an id of this view. Synthetic ids
// (≥ NumIDs) have no stored value and return "".
func (ix *Interned) Value(id int32) string {
	if id < 0 || int(id) >= len(ix.vals) {
		return ""
	}
	return ix.vals[id]
}

// Relation returns the interned relation, or nil when the database does
// not declare it (atoms over it are simply false).
func (ix *Interned) Relation(name string) *InternedRelation { return ix.rels[name] }

// DomainIDs returns the sorted ids of the database's active domain. The
// caller must not mutate the result.
func (ix *Interned) DomainIDs() []int32 { return ix.domain }

// Interned returns the memoized frozen view of the database, building it
// on first use. The result is invalidated by any write; racing readers
// may each build (identical) views, the last one published wins. The
// returned view must be treated as immutable.
func (d *Database) Interned() *Interned {
	if p := d.interned.Load(); p != nil {
		return p
	}
	ix := Intern(d)
	d.interned.Store(ix)
	return ix
}

// InternedIfBuilt returns the memoized frozen view if one has been built
// since the last write, else nil. The store layer uses it to decide
// whether to freeze the next version eagerly.
func (d *Database) InternedIfBuilt() *Interned { return d.interned.Load() }

// SeedInterned installs a prebuilt view (from Intern or InternNext) as
// the memoized view of d. ix must have been frozen from exactly d's
// current contents.
func (d *Database) SeedInterned(ix *Interned) { d.interned.Store(ix) }
