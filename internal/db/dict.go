package db

import (
	"hash/maphash"
	"strings"
	"sync"
)

// dict is the append-only mapping between constant strings and dense
// int32 ids that a Database and everything derived from it — clones,
// copy-on-write versions, repairs, frozen views — share. Ids are handed
// out in order of first occurrence and never reused or dropped, so a
// value has the same id in every version that knows it, including after
// every fact mentioning it was removed and re-inserted.
//
// A value is copied into the dictionary's arena when it first enters, so
// the dictionary never aliases the strings it was handed (a request body,
// a caller's Fact) and later occurrences cost a lookup, not a copy.
//
// The index from values to ids is an open-addressing table, not a Go
// map: it holds no pointers for the collector to scan, and each slot
// keeps its value's hash beside the id, so growing the table rehashes no
// string and a probe reads a value only when the hashes match.
//
// Writers of one lineage member and readers of another run concurrently
// (the store mutates the next version while readers resolve constants
// against published ones), hence the lock.
type dict struct {
	mu   sync.Mutex
	vals []string
	// index is a linear-probing table at load factor ≤ ½ whose slots hold
	// hash(vals[id]) << 32 | id + 1, 0 meaning empty.
	index []uint64
	// arena is the chunk new values are copied into; a full chunk is left
	// to the strings cut from it and replaced by a larger one.
	arena strings.Builder
}

// dictSeed seeds the dictionary's string hash.
var dictSeed = maphash.MakeSeed()

func hashString(v string) uint32 { return uint32(maphash.String(dictSeed, v)) }

// find returns the id of v, whose hash is h, or -1 and the empty slot
// where v's id belongs. Caller holds mu.
func (dc *dict) find(v string, h uint32) (id int32, slot uint32) {
	if len(dc.index) == 0 {
		return -1, 0
	}
	mask := uint32(len(dc.index) - 1)
	for slot = h & mask; ; slot = (slot + 1) & mask {
		e := dc.index[slot]
		if e == 0 {
			return -1, slot
		}
		if uint32(e>>32) == h && dc.vals[int32(e)-1] == v {
			return int32(e) - 1, slot
		}
	}
}

// id returns the id of v, or -1. Caller holds mu.
func (dc *dict) id(v string) int32 {
	id, _ := dc.find(v, hashString(v))
	return id
}

const (
	arenaMinChunk = 256
	arenaMaxChunk = 64 << 10
)

// own returns a copy of v living in the arena. Caller holds mu.
func (dc *dict) own(v string) string {
	if dc.arena.Cap()-dc.arena.Len() < len(v) {
		size := min(max(2*dc.arena.Cap(), arenaMinChunk), arenaMaxChunk)
		dc.arena.Reset()
		dc.arena.Grow(max(size, len(v)))
	}
	off := dc.arena.Len()
	dc.arena.WriteString(v)
	return dc.arena.String()[off:]
}

// intern appends the ids of args to dst, assigning fresh ids to values
// the dictionary has not seen.
func (dc *dict) intern(dst []int32, args []string) []int32 {
	dc.mu.Lock()
	for _, a := range args {
		dst = append(dst, dc.put(a))
	}
	dc.mu.Unlock()
	return dst
}

// put returns the id of v, giving it the next id when it is new. Caller
// holds mu or owns the dictionary alone.
func (dc *dict) put(v string) int32 {
	h := hashString(v)
	id, slot := dc.find(v, h)
	if id >= 0 {
		return id
	}
	id = int32(len(dc.vals))
	if 2*(len(dc.vals)+1) > len(dc.index) {
		dc.grow()
		_, slot = dc.find(v, h)
	}
	dc.vals = append(dc.vals, dc.own(v))
	dc.index[slot] = uint64(h)<<32 | uint64(id+1)
	return id
}

// reserve sizes an empty dictionary for about n values: the index at its
// load factor, vals, and the arena's first chunk at 6 bytes a value. Past
// n they grow as they would from empty.
func (dc *dict) reserve(n int) {
	dc.index = make([]uint64, tableSize(n))
	dc.vals = make([]string, 0, n)
	dc.arena.Grow(min(max(6*n, arenaMinChunk), arenaMaxChunk))
}

// grow doubles the index and places every id again by its kept hash.
func (dc *dict) grow() {
	index := make([]uint64, max(2*len(dc.index), 16))
	mask := uint32(len(index) - 1)
	for _, e := range dc.index {
		if e == 0 {
			continue
		}
		slot := uint32(e>>32) & mask
		for index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		index[slot] = e
	}
	dc.index = index
}

// lookup appends the ids of args to dst; ok is false when some value is
// unknown (dst is then incomplete).
func (dc *dict) lookup(dst []int32, args []string) (_ []int32, ok bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for _, a := range args {
		id := dc.id(a)
		if id < 0 {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// snapshot returns the value table as of now: vals[id] is stable for
// every id below its length, whatever the dictionary learns later.
func (dc *dict) snapshot() []string {
	dc.mu.Lock()
	vals := dc.vals
	dc.mu.Unlock()
	return vals
}
