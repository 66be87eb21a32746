// Package db implements the (possibly inconsistent) database model of the
// paper: a finite set of facts over relations with primary-key signatures
// [n, k]. It provides blocks (maximal sets of key-equal facts), consistency
// checking, repair enumeration and counting, and the column/key indexes
// used by the first-order model checker.
//
// Storage is dictionary-encoded: a Database owns an append-only dictionary
// from constants to dense int32 ids (dict.go) and every Relation holds id
// rows with a tuple table and a block table (rows.go). The string API
// below decodes on the way out; the compiled evaluators read a frozen copy
// of the same rows (intern.go).
package db

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unicode"
)

// Fact is an R-fact: a relation name and constant arguments.
type Fact struct {
	Rel  string
	Args []string
}

// F is shorthand for constructing a fact.
func F(rel string, args ...string) Fact { return Fact{Rel: rel, Args: args} }

// String renders the fact without signature information.
func (f Fact) String() string {
	return f.Rel + "(" + strings.Join(f.Args, ", ") + ")"
}

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool {
	if f.Rel != g.Rel || len(f.Args) != len(g.Args) {
		return false
	}
	for i := range f.Args {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

// Relation is the stored extension of one relation name together with its
// signature.
type Relation struct {
	Name  string
	Arity int
	// Key is the number of leading primary-key positions.
	Key int

	dict *dict
	rows

	// sortedTails memoizes the blocks (as their tail rows) in sorted key
	// order, and frozen the relation's frozen view, between writes to this
	// relation. Once published both are immutable, so racing readers that
	// rebuild them concurrently are safe, and relations shared by
	// copy-on-write versions share them.
	sortedTails atomic.Pointer[[]int32]
	frozen      atomic.Pointer[InternedRelation]
}

func newRelation(name string, arity, key int, dc *dict) *Relation {
	return &Relation{Name: name, Arity: arity, Key: key, dict: dc,
		rows: rows{arity: arity, key: key}}
}

// drop clears a memo. A bulk load invalidates after every insert and
// finds the memo empty every time; the load it does then is far cheaper
// than an atomic store.
func drop[T any](p *atomic.Pointer[T]) {
	if p.Load() != nil {
		p.Store(nil)
	}
}

// own makes the relation's arrays safe to write: a frozen view shares
// them (freeze copies nothing), so the first write after a freeze copies
// them out from under it. Every mutation runs own, mutates, then touch.
func (r *Relation) own() {
	if r.frozen.Load() != nil {
		r.rows = r.rows.clone()
	}
}

// touch drops the relation's memoized read-path state after a write.
func (r *Relation) touch() {
	drop(&r.sortedTails)
	drop(&r.frozen)
}

// Size returns the number of facts stored.
func (r *Relation) Size() int { return r.n }

// NumBlocks returns the number of blocks.
func (r *Relation) NumBlocks() int { return r.nblocks }

// AllKey reports whether the relation's signature is all-key.
func (r *Relation) AllKey() bool { return r.Key == r.Arity }

// sortedBlockTails returns the tail row of every block, blocks in sorted
// key order (keys compared value by value), rebuilding the memoized copy
// if a write invalidated it. The order is a function of the stored
// content alone — two databases holding the same facts iterate identically
// regardless of insert/remove history. The store layer depends on this: a
// database recovered from a checkpoint plus WAL replay must behave exactly
// like the one that wrote it. Safe for concurrent readers.
func (r *Relation) sortedBlockTails() []int32 {
	if p := r.sortedTails.Load(); p != nil {
		return *p
	}
	vals := r.dict.snapshot()
	out := r.tails(make([]int32, 0, r.nblocks))
	slices.SortFunc(out, func(a, b int32) int {
		ka, kb := r.row(int(a))[:r.Key], r.row(int(b))[:r.Key]
		for c, id := range ka {
			if id != kb[c] {
				return strings.Compare(vals[id], vals[kb[c]])
			}
		}
		return 0
	})
	r.sortedTails.Store(&out)
	return out
}

// decode returns the facts stored at the given rows, or at every row in
// row order when idx is nil. The facts share one argument array.
func (r *Relation) decode(idx []int32) []Fact {
	n := len(idx)
	if idx == nil {
		n = r.n
	}
	vals := r.dict.snapshot()
	out := make([]Fact, n)
	args := make([]string, n*r.Arity)
	for i := range out {
		row := i
		if idx != nil {
			row = int(idx[i])
		}
		a := args[i*r.Arity : (i+1)*r.Arity : (i+1)*r.Arity]
		for c, id := range r.row(row) {
			a[c] = vals[id]
		}
		out[i] = Fact{Rel: r.Name, Args: a}
	}
	return out
}

// sortedValues decodes ids and sorts the values.
func sortedValues(vals []string, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = vals[id]
	}
	sort.Strings(out)
	return out
}

// ColumnValues returns the distinct values in column i (0-based), sorted.
func (r *Relation) ColumnValues(i int) []string {
	return sortedValues(r.dict.snapshot(), r.freeze().postings[i])
}

// clone returns a copy of the relation that shares nothing mutable with
// r. While r is frozen its arrays are immutable and the clone shares them
// and the view; the clone's first write copies them (own), so a store
// write pays a handful of slice copies and a no-op write pays nothing.
func (r *Relation) clone() *Relation {
	c := &Relation{Name: r.Name, Arity: r.Arity, Key: r.Key, dict: r.dict, rows: r.rows}
	if ir := r.frozen.Load(); ir != nil {
		c.frozen.Store(ir)
	} else {
		c.rows = r.rows.clone()
	}
	// A published memo is immutable and describes the same rows.
	c.sortedTails.Store(r.sortedTails.Load())
	return c
}

// Database is a finite set of facts over a fixed set of relations.
//
// Concurrency: a Database is safe for any number of concurrent readers
// (Has, Facts, Block, Blocks, ColumnValues, ActiveDomain, NumRepairs,
// Size, String, Repairs, Clone, …) as long as no goroutine mutates it at
// the same time. Mutating methods — DeclareRelation, Insert, Remove, and
// their Must variants — are not safe to call concurrently with anything
// else on the same Database; mutating one database while others of its
// lineage (Clone, CloneCOW) are read is safe, the shared dictionary is
// locked. The memoized ActiveDomain and NumRepairs values are published
// atomically, so racing readers that fill them concurrently are safe.
type Database struct {
	// dict is shared down the Clone/CloneCOW/Repairs lineage, which is
	// what keeps ids comparable across the versions of a store.
	dict *dict
	rels map[string]*Relation
	// relNames preserves deterministic iteration order.
	relNames []string
	// adom, numRepairs, and interned memoize ActiveDomain, NumRepairs,
	// and the frozen view between writes; writers invalidate, racing
	// readers may each recompute and publish (identical) values.
	adom       atomic.Pointer[[]string]
	numRepairs atomic.Pointer[float64]
	interned   atomic.Pointer[Interned]
}

// New returns an empty database.
func New() *Database {
	return &Database{dict: &dict{}, rels: make(map[string]*Relation)}
}

// DeclareRelation registers a relation name with signature [arity, key].
// It is idempotent for matching signatures and returns an error on a
// signature clash.
func (d *Database) DeclareRelation(name string, arity, key int) error {
	if arity < 1 || key < 1 || key > arity {
		return fmt.Errorf("db: invalid signature [%d, %d] for %s", arity, key, name)
	}
	if r, ok := d.rels[name]; ok {
		if r.Arity != arity || r.Key != key {
			return fmt.Errorf("db: relation %s redeclared with signature [%d, %d] (was [%d, %d])",
				name, arity, key, r.Arity, r.Key)
		}
		return nil
	}
	name = strings.Clone(name) // the caller's string may be a slice of a request body
	d.rels[name] = newRelation(name, arity, key, d.dict)
	d.relNames = append(d.relNames, name)
	sort.Strings(d.relNames)
	d.invalidate()
	return nil
}

// invalidate drops memoized read-path state after a write.
func (d *Database) invalidate() {
	drop(&d.adom)
	drop(&d.numRepairs)
	drop(&d.interned)
}

// Relation returns the stored relation for the name, or nil if absent.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// RelationNames returns the declared relation names in sorted order.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.relNames))
	copy(out, d.relNames)
	return out
}

// maxStackArity bounds the tuples whose ids are resolved without a heap
// allocation.
const maxStackArity = 8

// Insert adds a fact. The relation must have been declared and the arity
// must match. Inserting a duplicate fact is a no-op. Neither f.Rel nor
// f.Args is retained: the dictionary copies a value when it first enters.
func (d *Database) Insert(f Fact) error {
	r, ok := d.rels[f.Rel]
	if !ok {
		return fmt.Errorf("db: relation %s not declared", f.Rel)
	}
	if len(f.Args) != r.Arity {
		return fmt.Errorf("db: fact %s has arity %d, relation %s has arity %d",
			f, len(f.Args), f.Rel, r.Arity)
	}
	var buf [maxStackArity]int32
	ids := d.dict.intern(buf[:0], f.Args)
	if r.frozen.Load() != nil && r.find(ids) >= 0 {
		return nil // a duplicate must not cost a frozen relation its copy
	}
	r.own()
	if r.insert(ids) {
		r.touch()
		d.invalidate()
	}
	return nil
}

// MustInsert inserts and panics on error; for tests and literals.
func (d *Database) MustInsert(f Fact) {
	if err := d.Insert(f); err != nil {
		panic(err)
	}
}

// MustDeclare declares and panics on error; for tests and literals.
func (d *Database) MustDeclare(name string, arity, key int) {
	if err := d.DeclareRelation(name, arity, key); err != nil {
		panic(err)
	}
}

// Has reports whether the fact is in the database. Unknown relations
// report false.
func (d *Database) Has(f Fact) bool {
	r, ok := d.rels[f.Rel]
	if !ok {
		return false
	}
	var buf [maxStackArity]int32
	ids, known := d.dict.lookup(buf[:0], f.Args)
	return known && r.find(ids) >= 0
}

// Facts returns all facts of the relation in deterministic (sorted) order.
func (d *Database) Facts(rel string) []Fact {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	out := r.decode(nil)
	slices.SortFunc(out, func(a, b Fact) int { return slices.Compare(a.Args, b.Args) })
	return out
}

// AllFacts returns every fact in the database in deterministic order.
func (d *Database) AllFacts() []Fact {
	var out []Fact
	for _, name := range d.relNames {
		out = append(out, d.Facts(name)...)
	}
	return out
}

// Size returns the total number of facts.
func (d *Database) Size() int {
	n := 0
	for _, r := range d.rels {
		n += r.n
	}
	return n
}

// Block returns the block of facts key-equal to the given key values, in
// insertion order.
func (d *Database) Block(rel string, keyArgs []string) []Fact {
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	var buf [maxStackArity]int32
	key, known := d.dict.lookup(buf[:0], keyArgs)
	if !known {
		return nil
	}
	_, tail := r.findBlock(key)
	if tail < 0 {
		return nil
	}
	return r.decode(r.appendBlock(nil, tail))
}

// Blocks calls fn for every block of the relation in sorted block-key
// order (deterministic in the stored content, independent of the
// insert/remove history), stopping early if fn returns false.
func (d *Database) Blocks(rel string, fn func(block []Fact) bool) {
	r, ok := d.rels[rel]
	if !ok {
		return
	}
	tails := r.sortedBlockTails()
	idx := make([]int32, 0, r.n)
	ends := make([]int, len(tails))
	for i, t := range tails {
		idx = r.appendBlock(idx, int(t))
		ends[i] = len(idx)
	}
	facts := r.decode(idx)
	start := 0
	for _, end := range ends {
		if !fn(facts[start:end:end]) {
			return
		}
		start = end
	}
}

// IsConsistent reports whether every block is a singleton.
func (d *Database) IsConsistent() bool {
	for _, r := range d.rels {
		for i, next := range r.next {
			if int(next) != i {
				return false
			}
		}
	}
	return true
}

// ActiveDomain returns the sorted set of constants occurring in the
// database. The result is memoized until the next write; callers must not
// mutate the returned slice.
func (d *Database) ActiveDomain() []string {
	if p := d.adom.Load(); p != nil {
		return *p
	}
	ix := d.Interned()
	out := sortedValues(ix.vals, ix.domain)
	d.adom.Store(&out)
	return out
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database { return d.CloneCOW(d.relNames...) }

// CloneCOW returns a copy-on-write clone: relations named in rels are
// deep-copied (and therefore safely mutable on the clone), every other
// relation is shared by pointer with the receiver. The clone's shared
// relations must not be mutated — the intended use is a versioned store
// that publishes immutable snapshots and pays only for the relation a
// write touches. Names in rels that are not declared are ignored. The
// clone shares the receiver's dictionary, so ids agree between the two.
func (d *Database) CloneCOW(rels ...string) *Database {
	c := &Database{dict: d.dict, rels: make(map[string]*Relation, len(d.rels))}
	c.relNames = append([]string(nil), d.relNames...)
	for name, r := range d.rels {
		c.rels[name] = r
	}
	for _, name := range rels {
		if r, ok := d.rels[name]; ok {
			c.rels[name] = r.clone()
		}
	}
	return c
}

// NumRepairs returns the number of repairs (the product of all block
// sizes) as a float64; it may overflow to +Inf for adversarial inputs.
// The result is memoized until the next write.
func (d *Database) NumRepairs() float64 {
	if p := d.numRepairs.Load(); p != nil {
		return *p
	}
	n := 1.0
	for _, r := range d.rels {
		for _, e := range r.blocks {
			if e != 0 {
				n *= float64(r.blockSize(int(e - 1)))
			}
		}
		if math.IsInf(n, 1) {
			break
		}
	}
	d.numRepairs.Store(&n)
	return n
}

// Repairs enumerates the repairs of the database restricted to the given
// relation names (nil means all relations). For every repair it calls fn;
// enumeration stops early when fn returns false. Restricting to the
// relations a query mentions is sound for CERTAINTY because a repair's
// content on other relations cannot affect the query.
//
// The repair handed to fn is one database mutated in place between calls:
// the facts of singleton blocks, which every repair contains, are inserted
// once up front and only the choices of multi-fact blocks are swapped.
func (d *Database) Repairs(rels []string, fn func(repair *Database) bool) {
	if rels == nil {
		rels = d.relNames
	}
	// A block with a choice to make: the source rows to pick one from, and
	// the repair's relation to put it into.
	type choice struct {
		src, dst *Relation
		rows     []int32
	}
	var open []choice
	repair := &Database{dict: d.dict, rels: make(map[string]*Relation)}
	for _, name := range rels {
		r, ok := d.rels[name]
		if !ok || repair.rels[name] != nil {
			continue
		}
		repair.MustDeclare(name, r.Arity, r.Key)
		dst := repair.rels[name]
		for _, tail := range r.sortedBlockTails() {
			if r.next[tail] == tail {
				dst.insert(r.row(int(tail)))
			} else {
				open = append(open, choice{src: r, dst: dst, rows: r.appendBlock(nil, int(tail))})
			}
		}
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(open) {
			return fn(repair)
		}
		c := open[i]
		for _, row := range c.rows {
			ids := c.src.row(int(row))
			c.dst.own() // fn may have frozen the repair
			c.dst.insert(ids)
			c.dst.touch()
			repair.invalidate()
			cont := rec(i + 1)
			c.dst.own()
			c.dst.remove(c.dst.find(ids))
			c.dst.touch()
			repair.invalidate()
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// Remove deletes a fact if present. All indexes stay exact, so a database
// that inserts and removes facts is indistinguishable from one built
// directly from the surviving facts. The dictionary keeps the fact's
// values: re-inserting them later reuses their ids.
func (d *Database) Remove(f Fact) {
	r, ok := d.rels[f.Rel]
	if !ok {
		return
	}
	var buf [maxStackArity]int32
	ids, known := d.dict.lookup(buf[:0], f.Args)
	if !known {
		return
	}
	if i := r.find(ids); i >= 0 {
		r.own()
		r.remove(i)
		r.touch()
		d.invalidate()
	}
}

// IsIdentRune reports whether r may occur in an unquoted identifier or
// constant of the text syntax (internal/parse).
func IsIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '·' || r == '⊥'
}

// BareConst reports whether the constant v reads back as itself when
// written without quotes in the database syntax.
func BareConst(v string) bool {
	return v != "" && !strings.ContainsFunc(v, func(r rune) bool { return !IsIdentRune(r) })
}

// String renders the database as fact lines grouped by relation, in the
// database syntax of internal/parse: constants that are not plain
// identifiers are single-quoted, as parse.FormatFact does.
func (d *Database) String() string {
	var b strings.Builder
	for _, name := range d.relNames {
		r := d.rels[name]
		for _, f := range d.Facts(name) {
			b.WriteString(name)
			b.WriteByte('(')
			for i, a := range f.Args {
				if i > 0 {
					if i == r.Key {
						b.WriteString(" | ")
					} else {
						b.WriteString(", ")
					}
				}
				if BareConst(a) {
					b.WriteString(a)
				} else {
					b.WriteByte('\'')
					b.WriteString(a)
					b.WriteByte('\'')
				}
			}
			b.WriteString(")\n")
		}
	}
	return b.String()
}
