package db

import (
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
// Writers of one lineage member and readers of another run concurrently
// (the store mutates the next version while readers resolve constants
// against published ones), hence the lock.
type dict struct {
	mu   sync.Mutex
	ids  map[string]int32
	vals []string
	// arena is the chunk new values are copied into; a full chunk is left
	// to the strings cut from it and replaced by a larger one.
	arena strings.Builder
}

func newDict() *dict {
	return &dict{ids: make(map[string]int32)}
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
		id, ok := dc.ids[a]
		if !ok {
			a = dc.own(a)
			id = int32(len(dc.vals))
			dc.vals = append(dc.vals, a)
			dc.ids[a] = id
		}
		dst = append(dst, id)
	}
	dc.mu.Unlock()
	return dst
}

// lookup appends the ids of args to dst; ok is false when some value is
// unknown (dst is then incomplete).
func (dc *dict) lookup(dst []int32, args []string) (_ []int32, ok bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for _, a := range args {
		id, ok := dc.ids[a]
		if !ok {
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
