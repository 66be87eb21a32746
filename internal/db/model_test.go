package db

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// A model-based differential test of the dictionary-encoded storage: a
// byte program drives a Database and a trivial map-of-strings model
// through inserts, duplicate inserts, removes, absent removes,
// copy-on-write clones and freezes, and after every step the whole string
// API and the frozen view must agree with the model. Snapshots taken
// along the way (clone parents, frozen views) are re-checked at the end:
// later writes must not have reached them.

var modelSigs = []struct {
	name       string
	arity, key int
}{{"R", 2, 1}, {"S", 3, 2}, {"T", 1, 1}}

// Tiny value pools: tuples and block keys recur, tables stay small, so
// duplicates, block growth and shrinkage, and probe collisions are the
// common case. "b c" and "" need quoting in String.
var (
	modelKeys = []string{"a", "b", "c", "d", "b c"}
	modelVals = []string{"x", "y", ""}
)

// modelRel is one relation of the model: the set of tuples, and per block
// key the tuples in insertion order.
type modelRel struct {
	facts  map[string][]string
	blocks map[string][][]string
}

type model map[string]*modelRel

func newModel() model {
	m := model{}
	for _, s := range modelSigs {
		m[s.name] = &modelRel{facts: map[string][]string{}, blocks: map[string][][]string{}}
	}
	return m
}

func joined(args []string) string { return strings.Join(args, "\x00") }

func (m model) copy() model {
	c := newModel()
	for name, r := range m {
		for k, f := range r.facts {
			c[name].facts[k] = f
		}
		for k, b := range r.blocks {
			c[name].blocks[k] = slices.Clone(b)
		}
	}
	return c
}

func (m model) insert(rel string, key int, args []string) {
	r := m[rel]
	if _, dup := r.facts[joined(args)]; dup {
		return
	}
	r.facts[joined(args)] = args
	bk := joined(args[:key])
	r.blocks[bk] = append(r.blocks[bk], args)
}

func (m model) remove(rel string, key int, args []string) {
	r := m[rel]
	if _, ok := r.facts[joined(args)]; !ok {
		return
	}
	delete(r.facts, joined(args))
	bk := joined(args[:key])
	b := r.blocks[bk]
	b = slices.DeleteFunc(slices.Clone(b), func(f []string) bool { return slices.Equal(f, args) })
	if len(b) == 0 {
		delete(r.blocks, bk)
	} else {
		r.blocks[bk] = b
	}
}

// sortedFacts returns the relation's tuples in the order Facts promises.
func (r *modelRel) sortedFacts() [][]string {
	out := make([][]string, 0, len(r.facts))
	for _, f := range r.facts {
		out = append(out, f)
	}
	slices.SortFunc(out, slices.Compare[[]string])
	return out
}

// sortedBlocks returns the blocks in the order Blocks promises.
func (r *modelRel) sortedBlocks() [][][]string {
	out := make([][][]string, 0, len(r.blocks))
	for _, b := range r.blocks {
		out = append(out, b)
	}
	slices.SortFunc(out, func(a, b [][]string) int { return slices.Compare(a[0], b[0]) })
	return out
}

func argsOf(facts []Fact) [][]string {
	out := make([][]string, len(facts))
	for i, f := range facts {
		out[i] = f.Args
	}
	return out
}

func equalTuples(a, b [][]string) bool {
	return slices.EqualFunc(a, b, func(x, y []string) bool { return slices.Equal(x, y) })
}

// allTuples enumerates every tuple the pools can form for a signature.
func allTuples(arity, key int) [][]string {
	out := [][]string{nil}
	for c := 0; c < arity; c++ {
		pool := modelVals
		if c < key {
			pool = modelKeys
		}
		var next [][]string
		for _, prefix := range out {
			for _, v := range pool {
				next = append(next, append(slices.Clone(prefix), v))
			}
		}
		out = next
	}
	return out
}

func quoteModel(v string) string {
	if v == "" || strings.Contains(v, " ") {
		return "'" + v + "'"
	}
	return v
}

// checkModel compares every read path of d, and of its frozen view, with
// the model.
func checkModel(t *testing.T, d *Database, m model, when string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", when, fmt.Sprintf(format, args...))
	}
	ix := d.Interned()
	domain := map[string]bool{}
	repairs, consistent, size := 1.0, true, 0
	var text strings.Builder
	for _, sig := range modelSigs {
		mr, r := m[sig.name], d.Relation(sig.name)
		size += len(mr.facts)
		if r.Size() != len(mr.facts) || r.NumBlocks() != len(mr.blocks) {
			fail("%s: size %d blocks %d, model %d %d", sig.name, r.Size(), r.NumBlocks(), len(mr.facts), len(mr.blocks))
		}
		want := mr.sortedFacts()
		if got := argsOf(d.Facts(sig.name)); !equalTuples(got, want) {
			fail("%s: Facts = %q, model %q", sig.name, got, want)
		}
		for _, f := range want {
			text.WriteString(sig.name + "(")
			for i, a := range f {
				if i > 0 && i == sig.key {
					text.WriteString(" | ")
				} else if i > 0 {
					text.WriteString(", ")
				}
				text.WriteString(quoteModel(a))
			}
			text.WriteString(")\n")
		}

		ir := ix.Relation(sig.name)
		if ir.Rows() != len(mr.facts) || ir.NumBlocks() != len(mr.blocks) {
			fail("%s: frozen rows %d blocks %d, model %d %d", sig.name, ir.Rows(), ir.NumBlocks(), len(mr.facts), len(mr.blocks))
		}
		ids := func(args []string) ([]int32, bool) {
			out := make([]int32, len(args))
			for i, a := range args {
				id, ok := ix.ID(a)
				if !ok {
					return nil, false
				}
				out[i] = id
			}
			return out, true
		}
		for _, args := range allTuples(sig.arity, sig.key) {
			_, stored := mr.facts[joined(args)]
			if d.Has(Fact{Rel: sig.name, Args: args}) != stored {
				fail("%s: Has(%q) != %v", sig.name, args, stored)
			}
			if tuple, known := ids(args); (known && ir.Has(tuple)) != stored {
				fail("%s: frozen Has(%q) != %v", sig.name, args, stored)
			}
		}

		// Blocks: point lookups in insertion order, iteration in sorted
		// key order, and the same through the frozen block table.
		maxBlock := 0
		for _, key := range allTuples(sig.key, sig.key) {
			want := mr.blocks[joined(key)]
			if got := argsOf(d.Block(sig.name, key)); !equalTuples(got, want) {
				fail("%s: Block(%q) = %q, model %q", sig.name, key, got, want)
			}
			var got [][]string
			if kid, known := ids(key); known {
				for _, row := range ir.BlockRows(kid) {
					var f []string
					for _, id := range ir.Row(int(row)) {
						f = append(f, ix.Value(id))
					}
					got = append(got, f)
				}
			}
			if !equalTuples(got, want) {
				fail("%s: BlockRows(%q) = %q, model %q", sig.name, key, got, want)
			}
			maxBlock = max(maxBlock, len(want))
			if len(want) > 0 {
				repairs *= float64(len(want))
				consistent = consistent && len(want) == 1
			}
		}
		if ir.MaxBlockSize() != maxBlock {
			fail("%s: MaxBlockSize = %d, model %d", sig.name, ir.MaxBlockSize(), maxBlock)
		}
		var iterated [][][]string
		d.Blocks(sig.name, func(b []Fact) bool {
			iterated = append(iterated, argsOf(b))
			return true
		})
		if !slices.EqualFunc(iterated, mr.sortedBlocks(), equalTuples) {
			fail("%s: Blocks = %q, model %q", sig.name, iterated, mr.sortedBlocks())
		}

		for col := 0; col < sig.arity; col++ {
			set := map[string]bool{}
			for _, f := range mr.facts {
				set[f[col]] = true
				domain[f[col]] = true
			}
			want := sortedKeys(set)
			if got := r.ColumnValues(col); !slices.Equal(got, want) {
				fail("%s: ColumnValues(%d) = %q, model %q", sig.name, col, got, want)
			}
			posting := ir.Posting(col)
			var got []string
			for i, id := range posting {
				if i > 0 && posting[i-1] >= id {
					fail("%s: Posting(%d) not strictly ascending: %v", sig.name, col, posting)
				}
				got = append(got, ix.Value(id))
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				fail("%s: Posting(%d) = %q, model %q", sig.name, col, got, want)
			}
		}
	}
	checkHoleSets(t, ix, m, when)
	if d.Size() != size {
		fail("Size = %d, model %d", d.Size(), size)
	}
	if got, want := d.ActiveDomain(), sortedKeys(domain); !slices.Equal(got, want) {
		fail("ActiveDomain = %q, model %q", got, want)
	}
	if len(ix.DomainIDs()) != len(domain) {
		fail("DomainIDs has %d ids, model %d", len(ix.DomainIDs()), len(domain))
	}
	if d.NumRepairs() != repairs || d.IsConsistent() != consistent {
		fail("NumRepairs %v IsConsistent %v, model %v %v", d.NumRepairs(), d.IsConsistent(), repairs, consistent)
	}
	if d.String() != text.String() {
		fail("String =\n%s\nmodel\n%s", d, text.String())
	}
}

// checkHoleSets compares every hole index of the frozen view ix with the
// model: for each hole column and each rest the pools can form, HoleSet
// holds exactly the model's hole values of the matching facts, is nil
// when no fact matches, and takes the form NewIDSet gives the same ids.
func checkHoleSets(t *testing.T, ix *Interned, m model, when string) {
	t.Helper()
	for _, sig := range modelSigs {
		ir := ix.Relation(sig.name)
		for hole := 0; hole < sig.arity; hole++ {
			first := modelVals[0]
			if hole < sig.key {
				first = modelKeys[0]
			}
			// Each rest once: the tuples whose hole holds the pool's first value.
			for _, args := range allTuples(sig.arity, sig.key) {
				if args[hole] != first {
					continue
				}
				rest := slices.Delete(slices.Clone(args), hole, hole+1)
				wantSet := map[string]bool{}
				for _, f := range m[sig.name].facts {
					if slices.Equal(slices.Delete(slices.Clone(f), hole, hole+1), rest) {
						wantSet[f[hole]] = true
					}
				}
				want := sortedKeys(wantSet)
				restIDs := make([]int32, len(rest))
				known := true
				for i, v := range rest {
					restIDs[i], known = ix.ID(v)
					if !known {
						break
					}
				}
				var set *IDSet
				if known {
					set = ir.HoleSet(hole, restIDs)
				}
				if set == nil {
					if len(want) > 0 {
						t.Fatalf("%s: %s: HoleSet(%d, %q) = nil, model %q", when, sig.name, hole, rest, want)
					}
					continue
				}
				ids := idSetMembers(set)
				var got []string
				for i, id := range ids {
					if i > 0 && ids[i-1] >= id {
						t.Fatalf("%s: %s: HoleSet(%d, %q) not strictly ascending: %v", when, sig.name, hole, rest, ids)
					}
					if !set.Contains(id) {
						t.Fatalf("%s: %s: HoleSet(%d, %q) does not contain its member %d", when, sig.name, hole, rest, id)
					}
					got = append(got, ix.Value(id))
				}
				sort.Strings(got)
				if !slices.Equal(got, want) || set.Card() != len(want) {
					t.Fatalf("%s: %s: HoleSet(%d, %q) = %q (card %d), model %q", when, sig.name, hole, rest, got, set.Card(), want)
				}
				if set.Dense() != NewIDSet(ids).Dense() {
					t.Fatalf("%s: %s: HoleSet(%d, %q) dense %v, NewIDSet %v", when, sig.name, hole, rest, set.Dense(), !set.Dense())
				}
			}
		}
	}
}

// idSetMembers returns the ids of s, ascending.
func idSetMembers(s *IDSet) []int32 {
	if s.Dense() {
		var out []int32
		for w, word := range s.Words() {
			for b := 0; b < 64; b++ {
				if word&(1<<b) != 0 {
					out = append(out, int32(w*64+b))
				}
			}
		}
		return out
	}
	return slices.Clone(s.SparseIDs())
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// runModelProgram interprets prog: each step reads an opcode byte and the
// bytes that pick its relation and values.
func runModelProgram(t *testing.T, prog []byte) {
	d, m := New(), newModel()
	for _, s := range modelSigs {
		d.MustDeclare(s.name, s.arity, s.key)
	}
	// Odd-length programs give the pools' values ids above the dense
	// floor, so that their hole sets take the sparse form.
	if len(prog)%2 == 1 {
		for i := 0; i < idsetDenseFloor; i++ {
			d.dict.intern(nil, []string{fmt.Sprint("pad", i)})
		}
	}
	// A snapshot is a database, or a frozen view, that must still read as
	// the model did when it was taken.
	type snapshot struct {
		d    *Database
		ix   *Interned
		m    model
		when string
	}
	var kept []snapshot
	// writable names the relations d does not share with a kept snapshot.
	writable := map[string]bool{"R": true, "S": true, "T": true}
	// write readies rel for a write the way the store does: clone exactly
	// the relation about to be written, keep the parent.
	write := func(rel, when string) {
		if !writable[rel] {
			kept = append(kept, snapshot{d: d, m: m.copy(), when: when + " (parent, cloned to write " + rel + ")"})
			d = d.CloneCOW(rel)
			writable = map[string]bool{rel: true}
		}
	}

	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	pickFact := func() (string, int, []string) {
		sig := modelSigs[next()%len(modelSigs)]
		args := make([]string, sig.arity)
		for c := range args {
			if c < sig.key {
				args[c] = modelKeys[next()%len(modelKeys)]
			} else {
				args[c] = modelVals[next()%len(modelVals)]
			}
		}
		return sig.name, sig.key, args
	}
	// pickStored picks a tuple the model holds (falling back to a random
	// one while the relation is empty).
	pickStored := func() (string, int, []string) {
		rel, key, args := pickFact()
		if stored := m[rel].sortedFacts(); len(stored) > 0 {
			args = stored[next()%len(stored)]
		}
		return rel, key, args
	}

	for step := 0; pos < len(prog); step++ {
		when := fmt.Sprintf("step %d", step)
		switch op := next() % 8; op {
		case 0, 1: // insert, often a new tuple
			rel, key, args := pickFact()
			write(rel, when)
			d.MustInsert(Fact{Rel: rel, Args: args})
			m.insert(rel, key, args)
		case 2: // duplicate insert
			rel, key, args := pickStored()
			write(rel, when)
			d.MustInsert(Fact{Rel: rel, Args: args})
			m.insert(rel, key, args)
		case 3: // remove, often absent
			rel, key, args := pickFact()
			write(rel, when)
			d.Remove(Fact{Rel: rel, Args: args})
			m.remove(rel, key, args)
		case 4, 5: // remove a stored tuple
			rel, key, args := pickStored()
			write(rel, when)
			d.Remove(Fact{Rel: rel, Args: args})
			m.remove(rel, key, args)
		case 6: // go on with a copy-on-write clone of some relations
			kept = append(kept, snapshot{d: d, m: m.copy(), when: when + " (parent)"})
			mask := next()
			var names []string
			writable = map[string]bool{}
			for i, sig := range modelSigs {
				if mask&(1<<i) != 0 {
					names = append(names, sig.name)
					writable[sig.name] = true
				}
			}
			d = d.CloneCOW(names...)
		case 7: // freeze; the view must survive later writes
			kept = append(kept, snapshot{ix: d.Interned(), m: m.copy(), when: when + " (frozen view)"})
		}
		checkModel(t, d, m, when)
	}

	for _, s := range kept {
		if s.ix != nil {
			checkHoleSets(t, s.ix, s.m, "at the end, "+s.when)
			s.d = frozenAsDatabase(s.ix)
		}
		checkModel(t, s.d, s.m, "at the end, "+s.when)
	}
	// History independence: a database built from the surviving facts
	// alone reads the same.
	fresh := New()
	for _, s := range modelSigs {
		fresh.MustDeclare(s.name, s.arity, s.key)
	}
	for _, f := range d.AllFacts() {
		fresh.MustInsert(f)
	}
	if fresh.String() != d.String() {
		t.Fatalf("rebuilt database differs:\n%s\nvs\n%s", fresh, d)
	}
	for _, s := range modelSigs {
		var a, b [][]string
		d.Blocks(s.name, func(blk []Fact) bool { a = append(a, blk[0].Args[:s.key]); return true })
		fresh.Blocks(s.name, func(blk []Fact) bool { b = append(b, blk[0].Args[:s.key]); return true })
		if !equalTuples(a, b) {
			t.Fatalf("%s: block order depends on history: %q vs %q", s.name, a, b)
		}
	}
}

// frozenAsDatabase rebuilds a database from nothing but a frozen view, so
// that checkModel can hold the view to the model it was frozen at. Block
// by block, to keep insertion order.
func frozenAsDatabase(ix *Interned) *Database {
	d := New()
	for _, s := range modelSigs {
		d.MustDeclare(s.name, s.arity, s.key)
		ir := ix.Relation(s.name)
		seen := map[string]bool{}
		for i := 0; i < ir.Rows(); i++ {
			key := ir.Row(i)[:s.key]
			if k := fmt.Sprint(key); seen[k] {
				continue
			} else {
				seen[k] = true
			}
			for _, row := range ir.BlockRows(key) {
				f := Fact{Rel: s.name}
				for _, id := range ir.Row(int(row)) {
					f.Args = append(f.Args, ix.Value(id))
				}
				d.MustInsert(f)
			}
		}
	}
	return d
}

func TestRelationVsModel(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 40+rng.Intn(400))
		rng.Read(prog)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runModelProgram(t, prog) })
	}
}

func FuzzRelationVsModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0, 1, 2, 7, 4, 0, 0, 0, 0, 6, 0, 0, 2, 0})
	f.Add([]byte{1, 1, 0, 1, 2, 1, 1, 0, 1, 0, 6, 5, 1, 0, 0, 0, 0, 7, 3, 2, 4})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		prog := make([]byte, 200)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			return // every step re-checks the whole database
		}
		runModelProgram(t, prog)
	})
}

// collidingPrefixes returns two distinct 3-id tuples with the same
// hashTuple, so that they share a probe sequence in a table of any size
// (two-column keys over small ids never collide in full, three-column
// keys do). Every id is below 1<<collisionBits.
func collidingPrefixes(t *testing.T) (k1, k2 []int32) {
	t.Helper()
	// hashTuple(a, b, c) = (w(a, b) ^ c)*p with w = ((basis^a)*p ^ b)*p,
	// and multiplying by the odd p is a bijection: (a, b, 0) and
	// (a2, b2, c) collide exactly when c = w(a, b) ^ w(a2, b2). Look for
	// two prefixes whose w differ in the low bits only, so that c is an id
	// as small as the others.
	const basis, p = 2166136261, 16777619
	byHigh := map[uint32][2]int32{}
search:
	for a := int32(0); a < 1<<collisionBits; a++ {
		for b := int32(0); b < 1<<collisionBits; b++ {
			w := ((basis^uint32(a))*p ^ uint32(b)) * p
			if prev, ok := byHigh[w>>collisionBits]; ok {
				w0 := ((basis^uint32(prev[0]))*p ^ uint32(prev[1])) * p
				k1, k2 = []int32{prev[0], prev[1], 0}, []int32{a, b, int32(w ^ w0)}
				break search
			}
			byHigh[w>>collisionBits] = [2]int32{a, b}
		}
	}
	if k1 == nil || slices.Equal(k1, k2) || hashTuple(k1) != hashTuple(k2) {
		t.Fatalf("no colliding key pair found (%v %v)", k1, k2)
	}
	return k1, k2
}

const collisionBits = 11

// Two block keys with the same 32-bit hash must still be told apart,
// through inserts, removes that shift table entries back, and growth.
func TestBlockTableHashCollision(t *testing.T) {
	k1, k2 := collidingPrefixes(t)
	s := rows{arity: 4, key: 3}
	tuple := func(key []int32, v int32) []int32 { return append(slices.Clone(key), v) }
	block := func(key []int32) (vals []int32) {
		_, tail := s.findBlock(key)
		if tail < 0 {
			return nil
		}
		for _, row := range s.appendBlock(nil, tail) {
			if !slices.Equal(s.row(int(row))[:3], key) {
				t.Fatalf("block of %v holds row %v", key, s.row(int(row)))
			}
			vals = append(vals, s.row(int(row))[3])
		}
		return vals
	}
	expect := func(key []int32, want ...int32) {
		t.Helper()
		if got := block(key); !slices.Equal(got, want) {
			t.Fatalf("block %v = %v, want %v", key, got, want)
		}
	}
	s.insert(tuple(k1, 1))
	s.insert(tuple(k2, 1))
	s.insert(tuple(k1, 2))
	s.insert(tuple(k2, 2))
	expect(k1, 1, 2)
	expect(k2, 1, 2)
	// Filler blocks force both tables to grow and rehash.
	for i := int32(0); i < 100; i++ {
		s.insert([]int32{1<<collisionBits + i, i, 0, 0})
	}
	s.insert(tuple(k2, 3))
	expect(k1, 1, 2)
	expect(k2, 1, 2, 3)
	// Emptying the first block shifts the second back along the shared
	// probe sequence.
	s.remove(s.find(tuple(k1, 1)))
	expect(k1, 2)
	s.remove(s.find(tuple(k1, 2)))
	expect(k1)
	expect(k2, 1, 2, 3)
	if s.nblocks != 101 || s.n != 103 {
		t.Fatalf("blocks %d rows %d", s.nblocks, s.n)
	}
	s.insert(tuple(k1, 7))
	s.remove(s.find(tuple(k2, 2)))
	expect(k1, 7)
	expect(k2, 1, 3)
}

// A hole index groups rows by rest-of-row with the block table's hash:
// rests that collide in full must still get their own sets, in a view
// frozen before further inserts and in one frozen after them.
func TestHoleIndexHashCollision(t *testing.T) {
	k1, k2 := collidingPrefixes(t)
	s := rows{arity: 4, key: 3}
	tuple := func(key []int32, v int32) []int32 { return append(slices.Clone(key), v) }
	view := func() *InternedRelation {
		return &InternedRelation{Arity: 4, Key: 3, rows: s, holeIdx: make([]atomic.Pointer[holeIndex], 4)}
	}
	expect := func(ir *InternedRelation, rest []int32, want ...int32) {
		t.Helper()
		set := ir.HoleSet(3, rest)
		if set == nil {
			if len(want) > 0 {
				t.Fatalf("HoleSet(3, %v) = nil, want %v", rest, want)
			}
			return
		}
		if got := idSetMembers(set); !slices.Equal(got, want) || set.Card() != len(want) {
			t.Fatalf("HoleSet(3, %v) = %v (card %d), want %v", rest, got, set.Card(), want)
		}
	}
	// 5000 lies above the dense floor: k2's set of two is sparse.
	s.insert(tuple(k1, 1))
	s.insert(tuple(k2, 1))
	s.insert(tuple(k1, 2))
	s.insert(tuple(k2, 5000))
	before := view()
	expect(before, k1, 1, 2)
	expect(before, k2, 1, 5000)
	expect(before, []int32{k1[0], k1[1], 1})
	// Filler groups grow the next view's table.
	for i := int32(0); i < 100; i++ {
		s.insert([]int32{1<<collisionBits + i, i, 0, 0})
	}
	s.insert(tuple(k2, 3))
	s.insert(tuple(k1, 2))
	after := view()
	expect(after, k2, 1, 3, 5000)
	expect(after, k1, 1, 2)
	expect(after, []int32{1 << collisionBits, 0, 0}, 0)
	expect(before, k2, 1, 5000)
}
