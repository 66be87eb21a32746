package db

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the dictionary-encoded ("interned") read-only view
// of a Database that the compiled first-order evaluator runs against. Every
// constant is mapped to a dense int32 id, every relation gets an
// open-addressing hash index over its interned tuples plus per-column
// posting lists (the sorted distinct ids of each column), and the active
// domain becomes a sorted []int32. See docs/EVAL.md.
//
// An Interned is immutable after construction and safe for unbounded
// concurrent readers. Dictionaries are append-only and may be shared by
// the Interned views of consecutive store versions (InternNext), so ids
// are stable across versions: an index built for an untouched relation of
// version v is reused verbatim by version v+1.

// dict is an append-only mapping between constant strings and dense int32
// ids. It may be shared by many Interned views; all access to the mutable
// map/slice goes through the mutex. Ids once assigned are never reused,
// so a value's id is identical in every version that knows it.
type dict struct {
	mu   sync.Mutex
	ids  map[string]int32
	vals []string
}

func newDict() *dict {
	return &dict{ids: make(map[string]int32)}
}

// addAll interns every value in vs (sorted first for id determinism) and
// returns the new dictionary size and a snapshot of the value table.
func (dc *dict) addAll(vs []string) (int32, []string) {
	sorted := append([]string(nil), vs...)
	sort.Strings(sorted)
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for _, v := range sorted {
		if _, ok := dc.ids[v]; !ok {
			dc.ids[v] = int32(len(dc.vals))
			dc.vals = append(dc.vals, v)
		}
	}
	return int32(len(dc.vals)), dc.vals
}

// lookup returns the id for v if the dictionary knows it.
func (dc *dict) lookup(v string) (int32, bool) {
	dc.mu.Lock()
	id, ok := dc.ids[v]
	dc.mu.Unlock()
	return id, ok
}

// InternedRelation is the compiled-evaluator view of one relation: a flat
// tuple array, an open-addressing hash set over the tuples, and per-column
// posting lists. Read-only after construction.
type InternedRelation struct {
	src   *Relation // identity for cross-version reuse, never dereferenced after build
	Arity int
	Key   int

	rows int
	data []int32 // rows*Arity interned tuples, row-major
	// table is an open-addressing hash table at load factor ≤ 0.5:
	// entries are row+1, 0 means empty, mask = len(table)-1.
	table []int32
	mask  uint32

	postings [][]int32 // per column: sorted distinct ids

	// blocks and maxBlock snapshot the key-group statistics of the source
	// relation at build time (number of blocks, size of the largest
	// block). The planner consults them to choose and justify an
	// evaluation strategy without touching the mutable database.
	blocks   int
	maxBlock int

	// blockIdx lazily groups rows by key prefix for the delta layer's
	// dirty-block diffs. Built at most once per view; atomic so racing
	// readers may each build identical indexes with the last published
	// winning.
	blockIdx atomic.Pointer[map[uint64][]int32]

	// colSets and holeIdx are the bitmap evaluator's lazy indexes (see
	// bitset.go): per-column posting lists as IDSets, and per-hole-column
	// groupings of rows by rest-of-row. Same build-once-atomically idiom
	// as blockIdx; COW-shared relations carry them across versions.
	colSets atomic.Pointer[[]*IDSet]
	holeIdx []atomic.Pointer[holeIndex]
}

// Rows returns the number of stored tuples.
func (r *InternedRelation) Rows() int { return r.rows }

// NumBlocks returns the number of blocks (maximal key-equal fact groups)
// the relation had when this view was built.
func (r *InternedRelation) NumBlocks() int { return r.blocks }

// MaxBlockSize returns the size of the relation's largest block at build
// time (0 for an empty relation). MaxBlockSize == 1 means the relation is
// consistent: it contributes exactly one choice to every repair.
func (r *InternedRelation) MaxBlockSize() int { return r.maxBlock }

// Row returns the i-th interned tuple as a shared subslice of the
// relation's row-major tuple array. The caller must not mutate it. Row
// order is the build order of the view; it is deterministic for a given
// build history but not sorted.
func (r *InternedRelation) Row(i int) []int32 {
	return r.data[i*r.Arity : (i+1)*r.Arity]
}

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

// hashKey64 is FNV-1a/64 over the int32 words of a key prefix; it keys
// the lazy block index.
func hashKey64(key []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range key {
		u := uint32(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(u >> s))
			h *= 1099511628211
		}
	}
	return h
}

// BlockRows returns the indexes of every row whose key prefix equals
// key (i.e. the rows of one block), in build order. The first call
// builds a block index over the whole relation; later calls are O(block
// size). The caller must not mutate the result.
func (r *InternedRelation) BlockRows(key []int32) []int32 {
	if len(key) != r.Key || r.rows == 0 {
		return nil
	}
	idx := r.blockIdx.Load()
	if idx == nil {
		m := make(map[uint64][]int32, r.blocks)
		for i := 0; i < r.rows; i++ {
			h := hashKey64(r.Row(i)[:r.Key])
			m[h] = append(m[h], int32(i))
		}
		idx = &m
		r.blockIdx.Store(idx)
	}
	rows := (*idx)[hashKey64(key)]
	// Filter hash collisions by comparing the actual key prefix.
	out := rows
	filtered := false
	for n, i := range rows {
		row := r.Row(int(i))
		match := true
		for c, v := range key {
			if row[c] != v {
				match = false
				break
			}
		}
		if match {
			if filtered {
				out = append(out, i)
			}
			continue
		}
		if !filtered {
			out = append([]int32(nil), rows[:n]...)
			filtered = true
		}
	}
	return out
}

// hashTuple is FNV-1a over the int32 words of a tuple.
func hashTuple(args []int32) uint32 {
	h := uint32(2166136261)
	for _, v := range args {
		h ^= uint32(v)
		h *= 16777619
	}
	return h
}

// Has reports whether the interned tuple args is a fact of the relation.
// It performs no allocation.
func (r *InternedRelation) Has(args []int32) bool {
	if len(args) != r.Arity || r.rows == 0 {
		return false
	}
	h := hashTuple(args) & r.mask
	for {
		e := r.table[h]
		if e == 0 {
			return false
		}
		row := r.data[int(e-1)*r.Arity : int(e)*r.Arity]
		match := true
		for i, v := range args {
			if row[i] != v {
				match = false
				break
			}
		}
		if match {
			return true
		}
		h = (h + 1) & r.mask
	}
}

func (r *InternedRelation) insert(rowIdx int) {
	row := r.data[rowIdx*r.Arity : (rowIdx+1)*r.Arity]
	h := hashTuple(row) & r.mask
	for r.table[h] != 0 {
		h = (h + 1) & r.mask
	}
	r.table[h] = int32(rowIdx + 1)
}

// Interned is an immutable dictionary-encoded view of a Database at one
// point in time. It is safe for unbounded concurrent readers.
type Interned struct {
	dc *dict
	// n and vals snapshot the dictionary at build time: every id used by
	// this view is < n, and vals[:n] is stable even if the shared
	// dictionary grows for later versions.
	n    int32
	vals []string

	rels   map[string]*InternedRelation
	domain []int32 // sorted ids occurring in the database

	// domainSet lazily memoizes the active domain as an IDSet for the
	// bitmap evaluator (bitset.go).
	domainSet atomic.Pointer[IDSet]
}

// Intern builds a fresh interned view of d with its own dictionary.
// d must not be mutated while Intern runs.
func Intern(d *Database) *Interned {
	return internWith(newDict(), nil, d)
}

// InternNext builds the interned view of next reusing prev's dictionary
// and, for every relation of next that is pointer-identical to the
// relation prev was built from (the copy-on-write sharing of the store
// layer), prev's index verbatim. Ids are stable across the chain, so a
// reused index stays correct. next must not be mutated while InternNext
// runs, and the shared relations must be immutable (the CloneCOW
// contract).
func InternNext(prev *Interned, next *Database) *Interned {
	if prev == nil {
		return Intern(next)
	}
	return internWith(prev.dc, prev, next)
}

func internWith(dc *dict, prev *Interned, d *Database) *Interned {
	ix := &Interned{dc: dc, rels: make(map[string]*InternedRelation, len(d.rels))}

	// Relations pointer-shared with the database prev was built from (the
	// store's copy-on-write) keep prev's index, and their values are in
	// the chained dictionary already; only the others are walked.
	var rebuilt []*Relation
	for name, r := range d.rels {
		if prev != nil {
			if pr, ok := prev.rels[name]; ok && pr.src == r {
				ix.rels[name] = pr
				continue
			}
		}
		rebuilt = append(rebuilt, r)
	}

	// Collect the values the dictionary does not know yet, in one pass,
	// and intern them in sorted order so ids are deterministic for a
	// given build history.
	var fresh []string
	seen := make(map[string]bool)
	dc.mu.Lock()
	for _, r := range rebuilt {
		for _, col := range r.colVals {
			for v := range col {
				if _, ok := dc.ids[v]; !ok && !seen[v] {
					seen[v] = true
					fresh = append(fresh, v)
				}
			}
		}
	}
	dc.mu.Unlock()
	ix.n, ix.vals = dc.addAll(fresh)

	for _, r := range rebuilt {
		ix.rels[r.Name] = ix.buildRelation(r)
	}

	// Active domain: ids of every value occurring in some column, in id
	// order. Ids are dense below ix.n, so a mark table replaces hashing
	// and sorting.
	occurs := make([]bool, ix.n)
	size := 0
	for _, ir := range ix.rels {
		for _, p := range ir.postings {
			for _, id := range p {
				if !occurs[id] {
					occurs[id] = true
					size++
				}
			}
		}
	}
	ix.domain = make([]int32, 0, size)
	for id, ok := range occurs {
		if ok {
			ix.domain = append(ix.domain, int32(id))
		}
	}
	return ix
}

func (ix *Interned) buildRelation(r *Relation) *InternedRelation {
	ir := &InternedRelation{src: r, Arity: r.Arity, Key: r.Key, rows: len(r.facts)}
	ir.holeIdx = make([]atomic.Pointer[holeIndex], r.Arity)
	ir.blocks = len(r.blocks)
	for _, b := range r.blocks {
		if len(b) > ir.maxBlock {
			ir.maxBlock = len(b)
		}
	}
	ir.data = make([]int32, 0, ir.rows*r.Arity)
	ir.postings = make([][]int32, r.Arity)
	// Every value was interned by internWith, so one hold of the
	// dictionary lock resolves the whole relation.
	ix.dc.mu.Lock()
	ids := ix.dc.ids
	for _, f := range r.facts {
		for _, a := range f.Args {
			ir.data = append(ir.data, ids[a])
		}
	}
	for i, col := range r.colVals {
		p := make([]int32, 0, len(col))
		for v := range col {
			p = append(p, ids[v])
		}
		ir.postings[i] = p
	}
	ix.dc.mu.Unlock()

	size := uint32(4)
	for size < uint32(ir.rows)*2 {
		size *= 2
	}
	ir.table = make([]int32, size)
	ir.mask = size - 1
	for row := 0; row < ir.rows; row++ {
		ir.insert(row)
	}
	for _, p := range ir.postings {
		slices.Sort(p)
	}
	return ir
}

// NumIDs returns the dictionary size this view was built against; every
// id stored in the view is < NumIDs. Synthetic ids handed out by the
// compiler for constants outside the dictionary start at NumIDs.
func (ix *Interned) NumIDs() int32 { return ix.n }

// ID returns the id of a constant known to this view's dictionary
// snapshot.
func (ix *Interned) ID(v string) (int32, bool) {
	id, ok := ix.dc.lookup(v)
	if !ok || id >= ix.n {
		return 0, false
	}
	return id, true
}

// Value returns the constant for an id of this view. Synthetic ids
// (≥ NumIDs) have no stored value and return "".
func (ix *Interned) Value(id int32) string {
	if id < 0 || id >= ix.n {
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

// SameDict reports whether two views share one append-only dictionary
// (the InternNext chain), which makes their ids directly comparable: a
// value known to both has the same id in both. The delta layer relies
// on this to compare recorded support sets against later versions'
// dirty blocks without re-resolving strings.
func (ix *Interned) SameDict(o *Interned) bool { return o != nil && ix.dc == o.dc }

// Interned returns the memoized interned view of the database, building
// it on first use. The result is invalidated by any write; racing readers
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

// InternedIfBuilt returns the memoized interned view if one has been
// built since the last write, else nil. The store layer uses it to decide
// whether to chain dictionaries across versions.
func (d *Database) InternedIfBuilt() *Interned { return d.interned.Load() }

// SeedInterned installs a prebuilt interned view (from InternNext) as the
// memoized view of d. ix must have been built from exactly d's current
// contents.
func (d *Database) SeedInterned(ix *Interned) { d.interned.Store(ix) }
