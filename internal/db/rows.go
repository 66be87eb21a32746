package db

// rows is the id-level storage of one relation: row-major int32 tuples,
// an open-addressing table over whole tuples, and an open-addressing table
// over key prefixes whose entries lead to the block's rows. The mutable
// Relation owns one; its frozen view (InternedRelation) owns a copy, so
// both answer Has and block lookups with the same code.
//
// Both tables use linear probing at load factor ≤ 1/2; an entry is a row
// index + 1 and 0 means empty. The rows of a block form a circular list
// through next, in insertion order, and the block table points at the
// block's most recently inserted row (the tail), so tail.next is the
// first-inserted row. Rows stay dense: remove moves the last row into the
// hole, so row order is not meaningful.
type rows struct {
	arity, key int
	n          int     // stored tuples
	data       []int32 // n*arity ids, row-major
	next       []int32 // n entries: the next row of the same block, circular
	tuples     []int32 // tuple table
	blocks     []int32 // block table: (tail row of the block)+1
	nblocks    int
}

func (s *rows) row(i int) []int32 { return s.data[i*s.arity : (i+1)*s.arity] }

// hashTuple is FNV-1a over the int32 words of a tuple or key prefix.
func hashTuple(args []int32) uint32 {
	h := uint32(2166136261)
	for _, v := range args {
		h ^= uint32(v)
		h *= 16777619
	}
	return h
}

func eqIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// find returns the row holding the tuple args, or -1.
func (s *rows) find(args []int32) int {
	if s.n == 0 || len(args) != s.arity {
		return -1
	}
	mask := uint32(len(s.tuples) - 1)
	for h := hashTuple(args) & mask; ; h = (h + 1) & mask {
		e := s.tuples[h]
		if e == 0 {
			return -1
		}
		if eqIDs(s.row(int(e-1)), args) {
			return int(e - 1)
		}
	}
}

// findBlock returns the block-table slot and the tail row of the block
// with the given key prefix, or (0, -1) when there is none.
func (s *rows) findBlock(key []int32) (slot uint32, tail int) {
	if s.n == 0 || len(key) != s.key {
		return 0, -1
	}
	mask := uint32(len(s.blocks) - 1)
	for h := hashTuple(key) & mask; ; h = (h + 1) & mask {
		e := s.blocks[h]
		if e == 0 {
			return 0, -1
		}
		if eqIDs(s.row(int(e - 1))[:s.key], key) {
			return h, int(e - 1)
		}
	}
}

// appendBlock appends the rows of the block ending at tail to dst, in
// insertion order.
func (s *rows) appendBlock(dst []int32, tail int) []int32 {
	for i := s.next[tail]; ; i = s.next[i] {
		dst = append(dst, i)
		if int(i) == tail {
			return dst
		}
	}
}

// blockSize counts the rows of the block ending at tail.
func (s *rows) blockSize(tail int) int {
	n := 1
	for i := s.next[tail]; int(i) != tail; i = s.next[i] {
		n++
	}
	return n
}

// tails appends the tail row of every block to dst, in table order.
func (s *rows) tails(dst []int32) []int32 {
	for _, e := range s.blocks {
		if e != 0 {
			dst = append(dst, e-1)
		}
	}
	return dst
}

// grown returns an empty table able to take one more entry beside the
// count it holds now, or nil when tab already can.
func grown(tab []int32, count int) []int32 {
	if (count+1)*2 <= len(tab) {
		return nil
	}
	size := 2 * len(tab)
	if size < 8 {
		size = 8
	}
	return make([]int32, size)
}

// place stores entry at the first free slot of hash h's probe sequence.
func place(tab []int32, h uint32, entry int32) {
	mask := uint32(len(tab) - 1)
	for h &= mask; tab[h] != 0; h = (h + 1) & mask {
	}
	tab[h] = entry
}

// insert adds the tuple args, reporting false when it was already stored.
func (s *rows) insert(args []int32) bool {
	if t := grown(s.tuples, s.n); t != nil {
		for i := 0; i < s.n; i++ {
			place(t, hashTuple(s.row(i)), int32(i+1))
		}
		s.tuples = t
	}
	mask := uint32(len(s.tuples) - 1)
	h := hashTuple(args) & mask
	for ; s.tuples[h] != 0; h = (h + 1) & mask {
		if eqIDs(s.row(int(s.tuples[h]-1)), args) {
			return false
		}
	}
	i := int32(s.n)
	s.tuples[h] = i + 1
	s.data = append(s.data, args...)
	s.n++

	if t := grown(s.blocks, s.nblocks); t != nil {
		for _, e := range s.blocks {
			if e != 0 {
				place(t, hashTuple(s.row(int(e - 1))[:s.key]), e)
			}
		}
		s.blocks = t
	}
	key := args[:s.key]
	mask = uint32(len(s.blocks) - 1)
	for h = hashTuple(key) & mask; ; h = (h + 1) & mask {
		e := s.blocks[h]
		if e == 0 {
			s.blocks[h] = i + 1
			s.next = append(s.next, i)
			s.nblocks++
			return true
		}
		if tail := e - 1; eqIDs(s.row(int(tail))[:s.key], key) {
			s.next = append(s.next, s.next[tail])
			s.next[tail] = i
			s.blocks[h] = i + 1
			return true
		}
	}
}

// unplace empties slot of a linear-probing table and shifts the entries
// behind it back so that every probe sequence stays gap-free. home returns
// the hash of the row an entry stands for.
func unplace(tab []int32, slot uint32, home func(entry int32) uint32) {
	mask := uint32(len(tab) - 1)
	i := slot
	for j := (i + 1) & mask; tab[j] != 0; j = (j + 1) & mask {
		// The entry at j may move into the hole at i unless its home slot
		// lies cyclically in (i, j].
		k := home(tab[j]) & mask
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			tab[i] = tab[j]
			i = j
		}
	}
	tab[i] = 0
}

// tupleSlot returns the tuple-table slot that holds row i.
func (s *rows) tupleSlot(i int) uint32 {
	mask := uint32(len(s.tuples) - 1)
	h := hashTuple(s.row(i)) & mask
	for s.tuples[h] != int32(i+1) {
		h = (h + 1) & mask
	}
	return h
}

// pred returns the row whose next is i, within the block ending at tail.
func (s *rows) pred(tail, i int) int {
	p := tail
	for int(s.next[p]) != i {
		p = int(s.next[p])
	}
	return p
}

// remove deletes row i, keeping the surviving rows of its block in
// insertion order, and moves the last row into its place.
func (s *rows) remove(i int) {
	tupleHome := func(e int32) uint32 { return hashTuple(s.row(int(e - 1))) }
	blockHome := func(e int32) uint32 { return hashTuple(s.row(int(e - 1))[:s.key]) }

	unplace(s.tuples, s.tupleSlot(i), tupleHome)

	slot, tail := s.findBlock(s.row(i)[:s.key])
	if p := s.pred(tail, i); p == i {
		unplace(s.blocks, slot, blockHome)
		s.nblocks--
	} else {
		s.next[p] = s.next[i]
		if tail == i {
			s.blocks[slot] = int32(p + 1)
		}
	}

	last := s.n - 1
	if i != last {
		s.tuples[s.tupleSlot(last)] = int32(i + 1)
		slot, tail = s.findBlock(s.row(last)[:s.key])
		if q := s.pred(tail, last); q == last {
			s.next[i] = int32(i)
		} else {
			s.next[q] = int32(i)
			s.next[i] = s.next[last]
		}
		if tail == last {
			s.blocks[slot] = int32(i + 1)
		}
		copy(s.row(i), s.row(last))
	}
	s.data = s.data[:last*s.arity]
	s.next = s.next[:last]
	s.n = last
}

// clone returns a copy sharing no memory with s.
func (s *rows) clone() rows {
	c := *s
	c.data = append([]int32(nil), s.data...)
	c.next = append([]int32(nil), s.next...)
	c.tuples = append([]int32(nil), s.tuples...)
	c.blocks = append([]int32(nil), s.blocks...)
	return c
}
