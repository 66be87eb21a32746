// Package shard partitions a versioned fact store into N shard stores
// by block key. The key-equal block is the paper's unit of
// inconsistency: every repair of a database chooses exactly one fact
// per block, independently across blocks, so any partition that keeps
// blocks whole preserves the repair structure — shard i's repairs are
// exactly the restrictions of the full database's repairs to shard i's
// blocks. That is what makes scatter-gather certainty sound (see
// docs/SHARDING.md for the argument and its limits).
//
// Facts are routed by an FNV-1a hash of the canonical key strings —
// not the interned integer ids, which are process-local and would route
// the same block differently across restarts and replicas, and not the
// relation name, so same-key blocks of different relations co-locate
// (the placement property PlanFor's co-keyed rule rests on).
//
// A Sharded store serializes writes across its shards and publishes a
// combined View (per-shard snapshots plus a global version, the sum of
// shard versions) atomically at batch boundaries, so readers never
// observe a half-applied cross-shard batch even though the underlying
// shard WALs commit independently.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cqa/internal/db"
	"cqa/internal/schema"
	"cqa/internal/store"
)

// Owner returns the shard owning the block (rel, key) among n shards.
// Blocks are atomic: a fact's shard depends only on its key values, so
// every fact of a block lands on the same shard. The relation name is
// deliberately NOT hashed: same-key blocks of different relations
// co-locate, so a ground-key query over several relations (a join with
// its negation guards on one key) touches exactly one shard — it stays
// answerable when every other shard is down, and so does any query
// whose atoms all carry the same key tuple (PlanFor). Any per-block
// placement keeps scatter-gather sound; only PlanFor's co-keyed rule
// depends on this one, and it is withheld from overridden placements.
func Owner(rel string, key []string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, k := range key {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= prime64
		}
		h ^= 0x1f
		h *= prime64 // separator: "ab"+"c" must differ from "a"+"bc"
	}
	return int(h % uint64(n))
}

// HashFunc routes a block to a shard; nil means Owner. Tests override
// it on a Sharded to force adversarial placements.
type HashFunc func(rel string, key []string, n int) int

// View is one consistent cross-shard read view: per-shard snapshots
// taken under the write lock, plus the global version (the sum of
// shard versions — monotone, and recoverable after restart from the
// shard WALs alone).
type View struct {
	snaps   []store.Snapshot
	version uint64
	hash    HashFunc

	unionOnce sync.Once
	union     *db.Database
}

// ViewOf is the one-shard view of d at version 0: what an inline
// database, which no store holds, is read through.
func ViewOf(d *db.Database) *View {
	return &View{snaps: []store.Snapshot{{DB: d}}}
}

// Plan plans q under the placement this view was built with, so reads
// follow whatever placement wrote the data.
func (v *View) Plan(q schema.Query) Plan { return PlanFor(q, len(v.snaps), v.hash) }

// NumShards returns the shard count.
func (v *View) NumShards() int { return len(v.snaps) }

// Shard returns shard i's database.
func (v *View) Shard(i int) *db.Database { return v.snaps[i].DB }

// ShardVersion returns shard i's store version.
func (v *View) ShardVersion(i int) uint64 { return v.snaps[i].Version }

// Version returns the global version.
func (v *View) Version() uint64 { return v.version }

// Union returns the merged database — every shard's facts in one view,
// built on first use and memoized for the View's lifetime. Union
// plans evaluate here; scatter plans never need it.
func (v *View) Union() *db.Database {
	v.unionOnce.Do(func() {
		if len(v.snaps) == 1 {
			v.union = v.snaps[0].DB
			return
		}
		out := db.New()
		for _, sn := range v.snaps {
			for _, name := range sn.DB.RelationNames() {
				r := sn.DB.Relation(name)
				// Signatures agree by construction: declares are broadcast.
				if err := out.DeclareRelation(name, r.Arity, r.Key); err != nil {
					continue
				}
				for _, f := range sn.DB.Facts(name) {
					out.Insert(f)
				}
			}
		}
		v.union = out
	})
	return v.union
}

// Sharded is N shard stores behind one write facade.
type Sharded struct {
	name   string
	shards []*store.Store
	hash   HashFunc

	mu      sync.Mutex // serializes writes and view publication
	onApply func(c store.Change, prev, cur *View)
	closed  bool

	cur atomic.Pointer[View]
}

// NewSharded opens (or creates) an n-shard store named name. Shard i's
// store is "<name>.s<i>" under opt — durable when opt.Dir is set. With
// n == 1 the single shard uses the plain name, so a pre-sharding data
// directory keeps working.
func NewSharded(name string, n int, opt store.Options) (*Sharded, error) {
	if n <= 0 {
		n = 1
	}
	s := &Sharded{name: name}
	for i := 0; i < n; i++ {
		st, err := store.Open(shardStoreName(name, i, n), opt)
		if err != nil {
			for _, prev := range s.shards {
				prev.Close()
			}
			return nil, err
		}
		s.shards = append(s.shards, st)
	}
	s.publishLocked()
	return s, nil
}

// NewShardedFromStores wraps existing stores (typically follower
// replicas, or a single adopted memory store) without opening anything.
func NewShardedFromStores(name string, stores []*store.Store) *Sharded {
	s := &Sharded{name: name, shards: stores}
	s.publishLocked()
	return s
}

// shardStoreName names shard i's underlying store.
func shardStoreName(name string, i, n int) string {
	if n == 1 {
		return name
	}
	return fmt.Sprintf("%s.s%d", name, i)
}

// SetHash overrides block routing — test hook for adversarial
// placements. Must be called before any facts are written.
func (s *Sharded) SetHash(h HashFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hash = h
}

// Name returns the logical database name.
func (s *Sharded) Name() string { return s.name }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's underlying store — the streaming and
// stats surface; mutations must go through the Sharded facade.
func (s *Sharded) Shard(i int) *store.Store { return s.shards[i] }

// Stores returns the underlying shard stores in order.
func (s *Sharded) Stores() []*store.Store { return s.shards }

// View returns the current consistent cross-shard view with one atomic
// load.
func (s *Sharded) View() *View { return s.cur.Load() }

// Version returns the current global version.
func (s *Sharded) Version() uint64 { return s.cur.Load().version }

// Durable reports whether the shards persist writes.
func (s *Sharded) Durable() bool {
	return len(s.shards) > 0 && s.shards[0].Durable()
}

// SetOnApply registers fn to run once per batch that changed anything,
// after view publication and while the write lock is held — batches are
// observed in global-version order. prev and cur are the views before
// and after the batch; they differ in exactly c.Blocks. A batch that
// failed on one shard after others applied their slice is reported too,
// with what did apply: cur is what readers see from then on.
func (s *Sharded) SetOnApply(fn func(c store.Change, prev, cur *View)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onApply = fn
}

// publishLocked snapshots every shard and installs the combined view.
func (s *Sharded) publishLocked() *View {
	v := &View{snaps: make([]store.Snapshot, len(s.shards)), hash: s.hash}
	for i, st := range s.shards {
		v.snaps[i] = st.Snapshot()
		v.version += v.snaps[i].Version
	}
	s.cur.Store(v)
	return v
}

// Refresh re-snapshots the shards and publishes a fresh view. The
// follower path calls this after a replica reset, which lands outside
// the Sharded facade.
func (s *Sharded) Refresh() *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked()
}

// RefreshShard re-snapshots shard i alone and publishes the result,
// returning the views before and after. The follower path calls it from
// shard i's batch hook, which runs before that replica moves on: the two
// views then differ by exactly the hooked batch, even while a sibling
// replica has committed a batch whose own hook is still to run.
func (s *Sharded) RefreshShard(i int) (prev, cur *View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev = s.cur.Load()
	cur = &View{snaps: append([]store.Snapshot(nil), prev.snaps...), hash: s.hash}
	cur.snaps[i] = s.shards[i].Snapshot()
	for _, sn := range cur.snaps {
		cur.version += sn.Version
	}
	s.cur.Store(cur)
	return prev, cur
}

// shardOps is one shard's slice of a logical batch.
type shardOps struct {
	declares []decl
	inserts  []db.Fact
	deletes  []db.Fact
}

type decl struct {
	rel        string
	arity, key int
}

// Declare registers a relation on every shard (any shard may hold any
// of its blocks).
func (s *Sharded) Declare(rel string, arity, key int) (store.Change, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.Change{}, store.ErrClosed
	}
	if err := checkDecl(s.cur.Load(), decl{rel, arity, key}); err != nil {
		return store.Change{}, err
	}
	per := make([]shardOps, len(s.shards))
	for i := range per {
		per[i].declares = append(per[i].declares, decl{rel, arity, key})
	}
	return s.applyBatchLocked(per)
}

// checkDecl validates a declaration against the published view before
// any shard applies it, so a bad batch fails whole rather than leaving
// shards disagreeing.
func checkDecl(v *View, d decl) error {
	if d.arity <= 0 || d.key <= 0 || d.key > d.arity {
		return fmt.Errorf("shard: invalid signature [%d, %d] for %s", d.arity, d.key, d.rel)
	}
	if r := v.snaps[0].DB.Relation(d.rel); r != nil && (r.Arity != d.arity || r.Key != d.key) {
		return fmt.Errorf("shard: relation %s already declared with signature [%d, %d]",
			d.rel, r.Arity, r.Key)
	}
	return nil
}

// route picks the owner shard for fact f, resolving the key prefix
// from relation signatures visible in view (or staged declares).
// Arity is checked here, before any shard applies anything, so a bad
// fact fails the whole batch instead of splitting it.
func (s *Sharded) route(f db.Fact, v *View, staged map[string]decl) (int, error) {
	arity, key := 0, 0
	if d, ok := staged[f.Rel]; ok {
		arity, key = d.arity, d.key
	} else if r := v.snaps[0].DB.Relation(f.Rel); r != nil {
		arity, key = r.Arity, r.Key
	} else {
		return 0, fmt.Errorf("shard: relation %s is not declared", f.Rel)
	}
	if len(f.Args) != arity {
		return 0, fmt.Errorf("shard: fact %s has %d args, relation has arity %d",
			f.Rel, len(f.Args), arity)
	}
	if s.hash == nil {
		return Owner(f.Rel, f.Args[:key], len(s.shards)), nil
	}
	return s.hash(f.Rel, f.Args[:key], len(s.shards)), nil
}

// Insert adds facts as one logical batch, each routed to its block's
// owner shard.
func (s *Sharded) Insert(facts ...db.Fact) (store.Change, error) {
	return s.applyFacts(facts, nil, nil)
}

// Delete removes facts as one logical batch.
func (s *Sharded) Delete(facts ...db.Fact) (store.Change, error) {
	return s.applyFacts(nil, facts, nil)
}

// ApplyDB declares every relation of src on every shard and routes
// every fact to its owner, as one logical batch.
func (s *Sharded) ApplyDB(src *db.Database) (store.Change, error) {
	staged := make(map[string]decl)
	var ins []db.Fact
	for _, name := range src.RelationNames() {
		r := src.Relation(name)
		staged[name] = decl{name, r.Arity, r.Key}
		ins = append(ins, src.Facts(name)...)
	}
	return s.applyFacts(ins, nil, staged)
}

// DeleteDB removes every fact of src as one logical batch.
func (s *Sharded) DeleteDB(src *db.Database) (store.Change, error) {
	var del []db.Fact
	for _, name := range src.RelationNames() {
		del = append(del, src.Facts(name)...)
	}
	return s.applyFacts(nil, del, nil)
}

// applyFacts partitions a batch by owner shard and applies it. staged
// carries declarations that ride in the same batch (ApplyDB).
func (s *Sharded) applyFacts(ins, del []db.Fact, staged map[string]decl) (store.Change, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.Change{}, store.ErrClosed
	}
	v := s.cur.Load()
	per := make([]shardOps, len(s.shards))
	if staged != nil {
		names := make([]string, 0, len(staged))
		for n := range staged {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := checkDecl(v, staged[n]); err != nil {
				return store.Change{}, err
			}
		}
		for i := range per {
			for _, n := range names {
				per[i].declares = append(per[i].declares, staged[n])
			}
		}
	}
	for _, f := range ins {
		i, err := s.route(f, v, staged)
		if err != nil {
			return store.Change{}, err
		}
		per[i].inserts = append(per[i].inserts, f)
	}
	for _, f := range del {
		i, err := s.route(f, v, staged)
		if err != nil {
			return store.Change{}, err
		}
		per[i].deletes = append(per[i].deletes, f)
	}
	return s.applyBatchLocked(per)
}

// applyBatchLocked applies each shard's slice of the batch and
// publishes one combined view. A multi-shard batch is not crash-atomic
// across shard WALs (each shard commits its slice independently);
// readers of the facade still never observe a partial batch, because
// the view is published once, after every shard has applied.
func (s *Sharded) applyBatchLocked(per []shardOps) (store.Change, error) {
	prev := s.cur.Load()
	var agg store.Change
	relSet := make(map[string]bool)
	err := s.applyShardsLocked(per, &agg, relSet)
	v := s.publishLocked()
	agg.Version = v.version
	for r := range relSet {
		agg.Rels = append(agg.Rels, r)
	}
	sort.Strings(agg.Rels)
	if agg.Applied > 0 && s.onApply != nil {
		s.onApply(agg, prev, v)
	}
	if err != nil {
		return store.Change{}, err
	}
	return agg, nil
}

// applyShardsLocked applies each shard's slice in shard order, merging
// the per-shard changes into agg, and stops at the first error.
func (s *Sharded) applyShardsLocked(per []shardOps, agg *store.Change, relSet map[string]bool) error {
	for i, ops := range per {
		st := s.shards[i]
		for _, d := range ops.declares {
			ch, err := st.Declare(d.rel, d.arity, d.key)
			if err != nil {
				return err
			}
			mergeChange(agg, ch, relSet)
		}
		if len(ops.inserts) > 0 {
			ch, err := st.Insert(ops.inserts...)
			if err != nil {
				return err
			}
			mergeChange(agg, ch, relSet)
		}
		if len(ops.deletes) > 0 {
			ch, err := st.Delete(ops.deletes...)
			if err != nil {
				return err
			}
			mergeChange(agg, ch, relSet)
		}
	}
	return nil
}

func mergeChange(agg *store.Change, ch store.Change, relSet map[string]bool) {
	agg.Applied += ch.Applied
	for _, r := range ch.Rels {
		relSet[r] = true
	}
	agg.Blocks = append(agg.Blocks, ch.Blocks...)
}

// Stats returns per-shard store stats, in shard order.
func (s *Sharded) Stats() []store.Stats {
	out := make([]store.Stats, len(s.shards))
	for i, st := range s.shards {
		out[i] = st.Stats()
	}
	return out
}

// Checkpoint checkpoints every durable shard.
func (s *Sharded) Checkpoint() error {
	for _, st := range s.shards {
		if err := st.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every shard, returning the first error.
func (s *Sharded) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, st := range s.shards {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
