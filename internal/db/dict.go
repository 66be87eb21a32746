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
// The index from values to ids is an open-addressing table of ids, not
// a Go map: it holds no pointers for the collector to scan, and hashes
// keeps each value's hash, so growing the table rehashes no string and a
// probe compares strings only when the hashes match.
//
// Writers of one lineage member and readers of another run concurrently
// (the store mutates the next version while readers resolve constants
// against published ones), hence the lock.
type dict struct {
	mu   sync.Mutex
	vals []string
	// hashes[id] is hash(vals[id]); index is a linear-probing table at
	// load factor ≤ ½ whose slots hold an id + 1, 0 meaning empty.
	hashes []uint32
	index  []int32
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
		if dc.hashes[e-1] == h && dc.vals[e-1] == v {
			return e - 1, slot
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
	dst = dc.add(dst, args)
	dc.mu.Unlock()
	return dst
}

// add is intern for a caller that holds mu or owns the dictionary alone.
func (dc *dict) add(dst []int32, args []string) []int32 {
	for _, a := range args {
		h := hashString(a)
		id, slot := dc.find(a, h)
		if id < 0 {
			id = int32(len(dc.vals))
			if 2*(len(dc.vals)+1) > len(dc.index) {
				dc.grow()
				_, slot = dc.find(a, h)
			}
			dc.vals = append(dc.vals, dc.own(a))
			dc.hashes = append(dc.hashes, h)
			dc.index[slot] = id + 1
		}
		dst = append(dst, id)
	}
	return dst
}

// grow doubles the index and places every id again by its kept hash.
func (dc *dict) grow() {
	index := make([]int32, max(2*len(dc.index), 16))
	mask := uint32(len(index) - 1)
	for id, h := range dc.hashes {
		slot := h & mask
		for index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		index[slot] = int32(id + 1)
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
