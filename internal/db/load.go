package db

import (
	"fmt"
	"runtime"
)

// Loader fills a new database from a stream of facts in one pass: the
// caller turns each argument into its dictionary id as it reads it (ID)
// and hands each fact over as ids (Add), which are appended to the
// relation's row array; the tuple table, the block table and the next
// chains are built once, at their final size, when Database is called.
// The result is the database that declaring and inserting the same facts
// one by one gives — the same rows in the same order, the same dictionary
// ids, duplicates dropped where Insert drops them, and the same errors.
// Only the tables' internal layout may differ.
//
// The database is not reachable by anyone else until Database returns,
// so the dictionary is written without its lock.
type Loader struct {
	d *Database
	// loaded lists the relations declared through this loader, and last
	// the one looked up last: most texts use a handful of relations, so a
	// short scan beats hashing the name into the map.
	loaded []*Relation
	last   *Relation
	// added counts the facts appended, for yieldEvery.
	added int
}

// NewLoader returns a loader over an empty database of about n facts,
// whose dictionary is sized for n/2 values: one doubling of its index
// takes it to a new value per fact, and a text that brings fewer does not
// pay for those.
func NewLoader(n int) *Loader {
	l := &Loader{d: New()}
	l.d.dict.reserve(n / 2)
	return l
}

// scanLimit bounds the relations found by scanning before the map is
// used.
const scanLimit = 8

// yieldEvery is how many facts a load appends between yields to the
// scheduler. A load runs long and allocates little, so on one processor
// a collection that starts before it gets no time to finish marking:
// it stays open through the load, and everything allocated meanwhile —
// by the load and by what the caller does with its result — survives
// it. Seeding a 40 000-fact database through a 2-shard router, the
// three processes' peak RSS summed to 70–84 MB over eight seeds without
// the yields and to 69–73 MB with them (GOMAXPROCS=1 each, as the
// benchmark runs them).
const yieldEvery = 4096

// relation returns the declared relation named name, or nil.
func (l *Loader) relation(name string) *Relation {
	if r := l.last; r != nil && r.Name == name {
		return r
	}
	if len(l.loaded) > scanLimit {
		l.last = l.d.rels[name]
		return l.last
	}
	for _, r := range l.loaded {
		if r.Name == name {
			l.last = r
			return r
		}
	}
	return nil
}

// Declare is DeclareRelation on the database being loaded.
func (l *Loader) Declare(name string, arity, key int) error {
	if r := l.relation(name); r != nil && r.Arity == arity && r.Key == key {
		return nil
	}
	if err := l.d.DeclareRelation(name, arity, key); err != nil {
		return err
	}
	l.loaded = append(l.loaded, l.d.rels[name])
	return nil
}

// ID returns the dictionary id of the value v, giving it the next id
// when it is new. v is not retained.
func (l *Loader) ID(v string) int32 { return l.d.dict.put(v) }

// Add appends the fact rel(ids...), whose ids came from ID. It fails as
// Insert does when rel is not declared or the arity does not match; ids
// is not retained.
func (l *Loader) Add(rel string, ids []int32) error {
	r := l.relation(rel)
	if r == nil {
		return fmt.Errorf("db: relation %s not declared", rel)
	}
	if len(ids) != r.Arity {
		return fmt.Errorf("db: fact has arity %d, relation %s has arity %d", len(ids), rel, r.Arity)
	}
	if l.added++; l.added%yieldEvery == 0 {
		runtime.Gosched()
	}
	r.data = append(r.data, ids...)
	return nil
}

// Database builds every relation's tables and returns the loaded
// database. The loader must not be used afterwards.
func (l *Loader) Database() *Database {
	for _, r := range l.loaded {
		r.build()
	}
	d := l.d
	l.d, l.loaded, l.last = nil, nil, nil
	return d
}

// tableSize is the size Insert's doubling leaves a probing table at after
// count entries: the smallest power of two ≥ 8 with load factor ≤ ½.
func tableSize(count int) int {
	size := 8
	for size < 2*count {
		size *= 2
	}
	return size
}

// build turns the raw rows in data, every loaded tuple in arrival order
// with duplicates, into stored rows: a repeated tuple is dropped where it
// recurs, and the tables and next chains are those that inserting the
// tuples in order builds. The tables are sized for every raw row and
// shrunk to the count that survives when that is smaller.
func (s *rows) build() {
	m := len(s.data) / s.arity
	if m == 0 {
		return
	}
	s.tuples = make([]int32, tableSize(m))
	s.blocks = make([]int32, tableSize(m))
	s.next = make([]int32, 0, m)
	tmask, bmask := uint32(len(s.tuples)-1), uint32(len(s.blocks)-1)
next:
	for i := 0; i < m; i++ {
		args := s.data[i*s.arity : (i+1)*s.arity]
		// FNV-1a is sequential, so the key prefix's hash is a step on the
		// way to the whole tuple's.
		hk := hashTuple(args[:s.key])
		h := hk
		for _, v := range args[s.key:] {
			h ^= uint32(v)
			h *= 16777619
		}
		for h &= tmask; s.tuples[h] != 0; h = (h + 1) & tmask {
			if eqIDs(s.row(int(s.tuples[h]-1)), args) {
				continue next
			}
		}
		row := int32(s.n)
		if s.n != i {
			copy(s.data[s.n*s.arity:], args)
		}
		s.tuples[h] = row + 1
		s.n++
		key := s.row(int(row))[:s.key]
		for hk &= bmask; ; hk = (hk + 1) & bmask {
			e := s.blocks[hk]
			if e == 0 {
				s.blocks[hk] = row + 1
				s.next = append(s.next, row)
				s.nblocks++
				break
			}
			if tail := e - 1; eqIDs(s.row(int(tail))[:s.key], key) {
				s.next = append(s.next, s.next[tail])
				s.next[tail] = row
				s.blocks[hk] = row + 1
				break
			}
		}
	}
	s.data = s.data[:s.n*s.arity]
	s.tuples = refit(s.tuples, s.n, func(e int32) uint32 { return hashTuple(s.row(int(e - 1))) })
	s.blocks = refit(s.blocks, s.nblocks, func(e int32) uint32 { return hashTuple(s.row(int(e - 1))[:s.key]) })
}

// refit returns tab moved into a table of tableSize(count) slots when
// that is smaller, else tab. home returns the hash of an entry's row.
func refit(tab []int32, count int, home func(entry int32) uint32) []int32 {
	size := tableSize(count)
	if size >= len(tab) {
		return tab
	}
	t := make([]int32, size)
	for _, e := range tab {
		if e != 0 {
			place(t, home(e), e)
		}
	}
	return t
}
