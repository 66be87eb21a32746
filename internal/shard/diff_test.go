package shard_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/schema"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// answer reads q on view through the engine's read path, Plan then
// Answer, and reports the result-cache outcome.
func answer(eng *engine.Engine, q schema.Query, dbID string, view engine.ShardView) (certain bool, cache string, err error) {
	r, err := eng.Plan(q)
	if err != nil {
		return false, "", err
	}
	certain, cache, _, err = eng.Answer(r, dbID, view)
	return certain, cache, err
}

// TestDifferentialShardedVsSingleVsNaive is the oracle check for
// scatter-gather: 500 random (query, database, write-batch) cases where
// the sharded evaluation, the single-store evaluation, and brute-force
// repair enumeration must agree — on the default block-hash placement
// AND on an adversarial placement that piles every block onto one
// shard (empty co-shards must not flip a verdict).
func TestDifferentialShardedVsSingleVsNaive(t *testing.T) {
	const cases = 500
	const shards = 4

	rng := rand.New(rand.NewSource(20180610))
	qOpts := gen.DefaultQueryOptions()
	dbOpts := gen.DBOptions{BlocksPerRelation: 2, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.7}

	eng := engine.New(engine.Options{CacheSize: 64, ResultCacheSize: 256})
	defer eng.Close()

	done := 0
	for done < cases {
		q := gen.Query(rng, qOpts)
		cls, err := core.Classify(q)
		if err != nil {
			t.Fatalf("classify %s: %v", q, err)
		}
		if cls.Verdict != core.VerdictFO {
			continue
		}
		done++
		seed := gen.Database(rng, q, dbOpts)
		batch := gen.Database(rng, q, dbOpts) // the write batch riding on top

		// Single-store reference: seed, then the write batch, then a
		// random deletion sweep.
		single := store.NewMem("ref", nil)
		if _, err := single.ApplyDB(seed); err != nil {
			t.Fatalf("case %d: single ApplyDB: %v", done, err)
		}
		spread, err := shard.NewSharded("t", shards, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		piled, err := shard.NewSharded("t", shards, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		piled.SetHash(func(string, []string, int) int { return shards - 1 })
		for _, sh := range []*shard.Sharded{spread, piled} {
			if _, err := sh.ApplyDB(seed); err != nil {
				t.Fatalf("case %d: sharded ApplyDB: %v", done, err)
			}
			if _, err := sh.ApplyDB(batch); err != nil {
				t.Fatalf("case %d: sharded write batch: %v", done, err)
			}
		}
		if _, err := single.ApplyDB(batch); err != nil {
			t.Fatalf("case %d: single write batch: %v", done, err)
		}
		var dels []db.Fact
		for _, rel := range seed.RelationNames() {
			for _, f := range seed.Facts(rel) {
				if rng.Intn(4) == 0 {
					dels = append(dels, f)
				}
			}
		}
		if len(dels) > 0 {
			if _, err := single.Delete(dels...); err != nil {
				t.Fatalf("case %d: single delete: %v", done, err)
			}
			for _, sh := range []*shard.Sharded{spread, piled} {
				if _, err := sh.Delete(dels...); err != nil {
					t.Fatalf("case %d: sharded delete: %v", done, err)
				}
			}
		}

		ref := single.Snapshot()
		want := naive.IsCertain(q, ref.DB)
		got, err := eng.Certain(q, ref.DB)
		if err != nil {
			t.Fatalf("case %d: single engine: %v", done, err)
		}
		if got != want {
			t.Fatalf("case %d: single engine = %v, naive = %v\nquery: %s\ndb:\n%s",
				done, got, want, q, ref.DB)
		}

		for label, sh := range map[string]*shard.Sharded{"spread": spread, "piled": piled} {
			view := sh.View()
			// The sharded state must reconstruct the reference exactly.
			if u, r := view.Union().String(), ref.DB.String(); u != r {
				t.Fatalf("case %d (%s): sharded union diverged from reference:\n%s\nvs\n%s",
					done, label, u, r)
			}
			sg, _, err := answer(eng, q, "", view)
			if err != nil {
				t.Fatalf("case %d (%s): sharded eval: %v", done, label, err)
			}
			if sg != want {
				t.Fatalf("case %d (%s): sharded = %v, naive = %v\nquery: %s\ndb:\n%s",
					done, label, sg, want, q, ref.DB)
			}
			// Versioned path: a miss then an exact-version hit.
			dbID := fmt.Sprintf("case%d-%s", done, label)
			v1, cache1, err := answer(eng, q, dbID, view)
			if err != nil {
				t.Fatal(err)
			}
			v2, cache2, err := answer(eng, q, dbID, view)
			if err != nil {
				t.Fatal(err)
			}
			if v1 != want || v2 != want {
				t.Fatalf("case %d (%s): versioned sharded = %v/%v, want %v", done, label, v1, v2, want)
			}
			if cache1 != engine.CacheMiss || cache2 != engine.CacheHit {
				t.Fatalf("case %d (%s): result cache %s/%s, want miss/hit", done, label, cache1, cache2)
			}
			sh.Close()
		}
	}
}
