package db

import (
	"slices"
	"sort"
)

// This file adds the set representations the bitmap-vectorized evaluator
// (internal/fo/bitmap.go) runs on: IDSet, an immutable set of interned
// ids stored either as dense 64-bit words or as a sorted sparse id list
// depending on density, plus lazily built per-relation indexes — column
// sets (posting lists as IDSets) and hole indexes (rows grouped by every
// column but one, each group exposing the set of ids at the remaining
// "hole" column; all groups of one hole column live in a few flat
// arrays). All indexes are built at most once per view behind an atomic
// pointer, racing builders may each build identical indexes with the
// last published winning, and COW-shared InternedRelations carry their
// indexes across versions for free.

const (
	// idsetDenseFloor: universes up to this many ids are always dense —
	// at most 128 words, cheaper than any branchy sparse representation.
	idsetDenseFloor = 1024
	// idsetDenseDiv: above the floor, a set is dense when it fills at
	// least 1/idsetDenseDiv of its universe; sparser sets keep the sorted
	// id list (the roaring-style container fallback).
	idsetDenseDiv = 16
)

// denseIDSet reports whether a set of card ids below universe takes the
// word representation.
func denseIDSet(universe, card int) bool {
	return universe <= idsetDenseFloor || card*idsetDenseDiv >= universe
}

// IDSet is an immutable set of non-negative interned ids. Safe for
// unbounded concurrent readers.
type IDSet struct {
	words  []uint64 // dense: bit (id&63) of words[id>>6]; nil when sparse
	sparse []int32  // sparse: sorted distinct ids; nil when dense
	card   int
}

var emptyIDSet = &IDSet{}

// NewIDSet builds a set from a sorted, duplicate-free id slice. The
// slice may be retained (sparse representation aliases it); the caller
// must not mutate it afterwards.
func NewIDSet(sorted []int32) *IDSet {
	if len(sorted) == 0 {
		return emptyIDSet
	}
	universe := int(sorted[len(sorted)-1]) + 1
	if denseIDSet(universe, len(sorted)) {
		words := make([]uint64, (universe+63)>>6)
		for _, id := range sorted {
			words[id>>6] |= 1 << (uint(id) & 63)
		}
		return &IDSet{words: words, card: len(sorted)}
	}
	return &IDSet{sparse: sorted, card: len(sorted)}
}

// Card returns the number of ids in the set.
func (s *IDSet) Card() int { return s.card }

// Empty reports whether the set has no ids.
func (s *IDSet) Empty() bool { return s.card == 0 }

// Words returns the dense word array, or nil for sparse sets. Bit
// (id&63) of Words()[id>>6] is set iff id is in the set. The caller must
// not mutate the result.
func (s *IDSet) Words() []uint64 { return s.words }

// SparseIDs returns the sorted id list of a sparse set, or nil for dense
// sets. The caller must not mutate the result.
func (s *IDSet) SparseIDs() []int32 { return s.sparse }

// Contains reports whether id is in the set.
func (s *IDSet) Contains(id int32) bool {
	if id < 0 {
		return false
	}
	if s.words != nil {
		w := int(id >> 6)
		return w < len(s.words) && s.words[w]&(1<<(uint(id)&63)) != 0
	}
	p := s.sparse
	i := sort.Search(len(p), func(i int) bool { return p[i] >= id })
	return i < len(p) && p[i] == id
}

// Word returns the 64-id membership word covering ids [w*64, w*64+64).
// For sparse sets the word is assembled by binary search, so dense
// callers iterating many words should prefer Words().
func (s *IDSet) Word(w int32) uint64 {
	if w < 0 {
		return 0
	}
	if s.words != nil {
		if int(w) >= len(s.words) {
			return 0
		}
		return s.words[w]
	}
	p := s.sparse
	lo := int32(w) << 6
	i := sort.Search(len(p), func(i int) bool { return p[i] >= lo })
	var out uint64
	for ; i < len(p) && p[i] < lo+64; i++ {
		out |= 1 << (uint(p[i]) & 63)
	}
	return out
}

// holeIndex groups a relation's rows by rest-of-row (every column but
// the hole, in column order) for one hole column, on flat arrays whose
// number does not grow with the number of groups. Group g's rest is
// rests[g*w:(g+1)*w] for w = Arity-1, and its hole values are sets[g].
// table is an open-addressing table keyed by hashTuple(rest), at load
// factor ≤ 1/2 and with linear probing as in rows.go: an entry is a
// group + 1 and 0 means empty. Lookups verify the actual rest values, so
// hash collisions cannot conflate groups.
type holeIndex struct {
	table []int32
	rests []int32
	sets  []IDSet
}

// buildHoleIndex indexes every row of r for hole column hole. One pass
// gives each row a group; a counting sort scatters the hole values into
// one array by group, and each group's segment is sorted in place. The
// rows are distinct tuples, so a group's hole values are distinct
// already. A group's set takes the form NewIDSet would give it: a
// sparse set aliases its segment, and the words of every dense set come
// from one slab. The allocations do not depend on the number of groups.
func (r *InternedRelation) buildHoleIndex(hole int) *holeIndex {
	w := r.Arity - 1
	size := 8
	for size < 2*r.n {
		size <<= 1
	}
	table := make([]int32, size)
	mask := uint32(size - 1)

	// The rest of each row is written where a new group's rest would go,
	// and kept there only when no group holds it yet.
	rests := make([]int32, r.n*w)
	group := make([]int32, r.n)
	groups := 0
	for i := 0; i < r.n; i++ {
		rest := rests[groups*w : (groups+1)*w]
		k := 0
		for c, v := range r.row(i) {
			if c != hole {
				rest[k] = v
				k++
			}
		}
		for h := hashTuple(rest) & mask; ; h = (h + 1) & mask {
			e := table[h]
			if e == 0 {
				table[h] = int32(groups + 1)
				group[i] = int32(groups)
				groups++
				break
			}
			if g := e - 1; eqIDs(rests[int(g)*w:(int(g)+1)*w], rest) {
				group[i] = g
				break
			}
		}
	}

	// Counting sort: pos[g] ends as the start of group g's segment of
	// vals; the segment ends where the next group's starts.
	pos := make([]int32, groups)
	for _, g := range group {
		pos[g]++
	}
	for g := 1; g < groups; g++ {
		pos[g] += pos[g-1]
	}
	vals := make([]int32, r.n)
	for i := r.n - 1; i >= 0; i-- {
		g := group[i]
		pos[g]--
		vals[pos[g]] = r.data[i*r.Arity+hole]
	}

	sets := make([]IDSet, groups)
	nwords := 0
	for g := range sets {
		stop := int32(r.n)
		if g+1 < groups {
			stop = pos[g+1]
		}
		seg := vals[pos[g]:stop:stop]
		slices.Sort(seg)
		sets[g] = IDSet{sparse: seg, card: len(seg)}
		if u := int(seg[len(seg)-1]) + 1; denseIDSet(u, len(seg)) {
			nwords += (u + 63) >> 6
		}
	}
	slab := make([]uint64, nwords)
	for g := range sets {
		s := &sets[g]
		u := int(s.sparse[s.card-1]) + 1
		if !denseIDSet(u, s.card) {
			continue
		}
		n := (u + 63) >> 6
		s.words, slab = slab[:n:n], slab[n:]
		for _, id := range s.sparse {
			s.words[id>>6] |= 1 << (uint(id) & 63)
		}
		s.sparse = nil
	}
	return &holeIndex{table: table, rests: rests[: groups*w : groups*w], sets: sets}
}

// HoleSet returns the set of ids v such that inserting v at column hole
// among rest (the remaining columns' values, in column order) forms a
// stored fact, or nil when no row matches rest. The first call for a
// hole column indexes the whole relation; later calls are one probe of
// the index's table. rest is not retained.
func (r *InternedRelation) HoleSet(hole int, rest []int32) *IDSet {
	if r.n == 0 || hole < 0 || hole >= r.Arity || len(rest) != r.Arity-1 {
		return nil
	}
	hi := r.holeIdx[hole].Load()
	if hi == nil {
		hi = r.buildHoleIndex(hole)
		r.holeIdx[hole].Store(hi)
	}
	w := len(rest)
	mask := uint32(len(hi.table) - 1)
	for h := hashTuple(rest) & mask; ; h = (h + 1) & mask {
		e := hi.table[h]
		if e == 0 {
			return nil
		}
		if g := int(e - 1); eqIDs(hi.rests[g*w:(g+1)*w], rest) {
			return &hi.sets[g]
		}
	}
}

// DomainSet returns the active domain as an IDSet, built lazily and
// memoized on the view.
func (ix *Interned) DomainSet() *IDSet {
	if s := ix.domainSet.Load(); s != nil {
		return s
	}
	s := NewIDSet(ix.domain)
	ix.domainSet.Store(s)
	return s
}
