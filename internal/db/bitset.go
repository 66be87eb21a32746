package db

import (
	"sort"
)

// This file adds the set representations the bitmap-vectorized evaluator
// (internal/fo/bitmap.go) runs on: IDSet, an immutable set of interned
// ids stored either as dense 64-bit words or as a sorted sparse id list
// depending on density, plus lazily built per-relation indexes — column
// sets (posting lists as IDSets) and hole indexes (rows grouped by every
// column but one, each group exposing the set of ids at the remaining
// "hole" column). All indexes are built at most once per view behind an
// atomic pointer, racing builders may each build identical indexes with
// the last published winning, and COW-shared InternedRelations carry
// their indexes across versions for free.

const (
	// idsetDenseFloor: universes up to this many ids are always dense —
	// at most 128 words, cheaper than any branchy sparse representation.
	idsetDenseFloor = 1024
	// idsetDenseDiv: above the floor, a set is dense when it fills at
	// least 1/idsetDenseDiv of its universe; sparser sets keep the sorted
	// id list (the roaring-style container fallback).
	idsetDenseDiv = 16
)

// IDSet is an immutable set of non-negative interned ids. Safe for
// unbounded concurrent readers.
type IDSet struct {
	words  []uint64 // dense: bit (id&63) of words[id>>6]; nil when sparse
	sparse []int32  // sparse: sorted distinct ids; nil when dense
	card   int
}

var emptyIDSet = &IDSet{}

// EmptyIDSet returns the canonical empty set.
func EmptyIDSet() *IDSet { return emptyIDSet }

// NewIDSet builds a set from a sorted, duplicate-free id slice. The
// slice may be retained (sparse representation aliases it); the caller
// must not mutate it afterwards.
func NewIDSet(sorted []int32) *IDSet {
	if len(sorted) == 0 {
		return emptyIDSet
	}
	universe := int(sorted[len(sorted)-1]) + 1
	if universe <= idsetDenseFloor || len(sorted)*idsetDenseDiv >= universe {
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

// Dense reports whether the set uses the word representation.
func (s *IDSet) Dense() bool { return s.words != nil }

// Words returns the dense word array, or nil for sparse sets. Bit
// (id&63) of Words()[id>>6] is set iff id is in the set. The caller must
// not mutate the result.
func (s *IDSet) Words() []uint64 { return s.words }

// SparseIDs returns the sorted id list of a sparse set, or nil for dense
// sets. The caller must not mutate the result.
func (s *IDSet) SparseIDs() []int32 { return s.sparse }

// NumWords returns the number of 64-id words the set spans: every member
// id is < NumWords()*64.
func (s *IDSet) NumWords() int32 {
	if s.words != nil {
		return int32(len(s.words))
	}
	if len(s.sparse) == 0 {
		return 0
	}
	return (s.sparse[len(s.sparse)-1] >> 6) + 1
}

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

// hashKey64 is FNV-1a/64 over the int32 words of a rest-of-row; it keys
// the hole indexes.
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

// ColSet returns column col's posting list as an IDSet. Built lazily for
// all columns on first use, memoized per view (and per COW-shared
// relation across versions).
func (r *InternedRelation) ColSet(col int) *IDSet {
	if col < 0 || col >= r.Arity {
		return emptyIDSet
	}
	sets := r.colSets.Load()
	if sets == nil {
		built := make([]*IDSet, r.Arity)
		for c := range built {
			built[c] = NewIDSet(r.postings[c])
		}
		sets = &built
		r.colSets.Store(sets)
	}
	return (*sets)[col]
}

// holeGroup is one group of a hole index: the values of every column but
// the hole (in column order) and the set of ids occurring at the hole
// among the group's rows.
type holeGroup struct {
	rest []int32
	set  *IDSet
}

// holeIndex groups a relation's rows by rest-of-row for one hole column.
// Groups chain under their FNV-1a hash; lookups verify the actual rest
// values, so hash collisions cannot conflate groups.
type holeIndex struct {
	groups map[uint64][]holeGroup
}

func (r *InternedRelation) buildHoleIndex(hole int) *holeIndex {
	type acc struct {
		rest []int32
		vals []int32
	}
	m := make(map[uint64][]*acc)
	restbuf := make([]int32, 0, r.Arity-1)
	for i := 0; i < r.n; i++ {
		row := r.Row(i)
		restbuf = restbuf[:0]
		for c, v := range row {
			if c != hole {
				restbuf = append(restbuf, v)
			}
		}
		h := hashKey64(restbuf)
		var g *acc
		for _, cand := range m[h] {
			if eqIDs(cand.rest, restbuf) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &acc{rest: append([]int32(nil), restbuf...)}
			m[h] = append(m[h], g)
		}
		g.vals = append(g.vals, row[hole])
	}
	hi := &holeIndex{groups: make(map[uint64][]holeGroup, len(m))}
	for h, gs := range m {
		out := make([]holeGroup, 0, len(gs))
		for _, g := range gs {
			vals := g.vals
			sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
			dedup := vals[:0]
			for i, v := range vals {
				if i == 0 || v != dedup[len(dedup)-1] {
					dedup = append(dedup, v)
				}
			}
			out = append(out, holeGroup{rest: g.rest, set: NewIDSet(dedup)})
		}
		hi.groups[h] = out
	}
	return hi
}

// HoleSet returns the set of ids v such that inserting v at column hole
// among rest (the remaining columns' values, in column order) forms a
// stored fact, or nil when no row matches rest. The first call for a
// hole column indexes the whole relation; later calls are one hash
// lookup. rest is not retained.
func (r *InternedRelation) HoleSet(hole int, rest []int32) *IDSet {
	if r.n == 0 || hole < 0 || hole >= r.Arity || len(rest) != r.Arity-1 {
		return nil
	}
	hi := r.holeIdx[hole].Load()
	if hi == nil {
		hi = r.buildHoleIndex(hole)
		r.holeIdx[hole].Store(hi)
	}
	for _, g := range hi.groups[hashKey64(rest)] {
		if eqIDs(g.rest, rest) {
			return g.set
		}
	}
	return nil
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
