// Package shard partitions a database into N shards by block key, for
// the router tier (cqad -route). The key-equal block is the paper's unit
// of inconsistency: every repair of a database chooses exactly one fact
// per block, independently across blocks, so any partition that keeps
// blocks whole preserves the repair structure — shard i's repairs are
// exactly the restrictions of the full database's repairs to shard i's
// blocks. That is what makes scatter-gather certainty sound (see
// docs/SHARDING.md for the argument and its limits).
//
// Facts are routed by an FNV-1a hash of the canonical key strings —
// not the interned integer ids, which are process-local and would route
// the same block differently across restarts and processes, and not the
// relation name, so same-key blocks of different relations co-locate
// (the placement property PlanFor's co-keyed rule rests on).
//
// Owner places blocks and PlanFor decides which shards a query's
// answer depends on; the router consumes both. Sharded, N memory stores
// behind one write facade, exists only for the in-process timing of the
// cross-shard union (View.Union).
package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cqa/internal/db"
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

// HashFunc routes a block to a shard; nil means Owner. Tests pass
// adversarial placements to PlanFor.
type HashFunc func(rel string, key []string, n int) int

// View is one consistent cross-shard read view: per-shard snapshots
// taken under the write lock.
type View struct {
	snaps []store.Snapshot

	unionOnce sync.Once
	union     *db.Database
}

// Union returns the merged database — every shard's facts in one view,
// built on first use and memoized for the View's lifetime.
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
	shards []*store.Store

	mu     sync.Mutex // serializes writes and view publication
	closed bool

	cur atomic.Pointer[View]
}

// NewSharded opens an n-shard store named name; shard i's store is
// "<name>.s<i>" under opt.
func NewSharded(name string, n int, opt store.Options) (*Sharded, error) {
	if n <= 0 {
		n = 1
	}
	s := &Sharded{}
	for i := 0; i < n; i++ {
		st, err := store.Open(fmt.Sprintf("%s.s%d", name, i), opt)
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

// View returns the current consistent cross-shard view with one atomic
// load.
func (s *Sharded) View() *View { return s.cur.Load() }

// publishLocked snapshots every shard and installs the combined view.
func (s *Sharded) publishLocked() {
	v := &View{snaps: make([]store.Snapshot, len(s.shards))}
	for i, st := range s.shards {
		v.snaps[i] = st.Snapshot()
	}
	s.cur.Store(v)
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
	return Owner(f.Rel, f.Args[:key], len(s.shards)), nil
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

// applyFacts partitions a batch by owner shard, applies each shard's
// slice in shard order, stopping at the first error, and publishes one
// combined view. staged carries declarations that ride in the same
// batch (ApplyDB); they are checked against the view before any shard
// applies anything. The change reports what the shards applied, at the
// sum of their versions.
func (s *Sharded) applyFacts(ins, del []db.Fact, staged map[string]decl) (store.Change, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.Change{}, store.ErrClosed
	}
	v := s.cur.Load()
	per := make([]shardOps, len(s.shards))
	names := make([]string, 0, len(staged))
	for n := range staged {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := staged[n]
		if r := v.snaps[0].DB.Relation(n); r != nil && (r.Arity != d.arity || r.Key != d.key) {
			return store.Change{}, fmt.Errorf("shard: relation %s already declared with signature [%d, %d]", n, r.Arity, r.Key)
		}
		for i := range per {
			per[i].declares = append(per[i].declares, d)
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
	var agg store.Change
	err := s.applyShards(per, &agg)
	s.publishLocked()
	if err != nil {
		return store.Change{}, err
	}
	sort.Strings(agg.Rels)
	agg.Rels = slices.Compact(agg.Rels)
	for _, st := range s.shards {
		agg.Version += st.Version()
	}
	return agg, nil
}

// applyShards applies each shard's slice in shard order, adding what
// took effect to agg, and stops at the first error.
func (s *Sharded) applyShards(per []shardOps, agg *store.Change) error {
	for i, ops := range per {
		st := s.shards[i]
		changes := make([]store.Change, 0, len(ops.declares)+2)
		for _, d := range ops.declares {
			ch, err := st.Declare(d.rel, d.arity, d.key)
			if err != nil {
				return err
			}
			changes = append(changes, ch)
		}
		if len(ops.inserts) > 0 {
			ch, err := st.Insert(ops.inserts...)
			if err != nil {
				return err
			}
			changes = append(changes, ch)
		}
		if len(ops.deletes) > 0 {
			ch, err := st.Delete(ops.deletes...)
			if err != nil {
				return err
			}
			changes = append(changes, ch)
		}
		for _, ch := range changes {
			agg.Applied += ch.Applied
			agg.Rels = append(agg.Rels, ch.Rels...)
			agg.Blocks = append(agg.Blocks, ch.Blocks...)
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
