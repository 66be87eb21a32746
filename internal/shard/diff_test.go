package shard_test

import (
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// TestDifferentialShardedVsSingleVsNaive checks the cross-shard union
// that the in-process probe times: over 500 random (query, database,
// write batch, deletion sweep) cases, the union of a 4-shard store
// equals the single store given the same writes, and the engine's
// verdict on the union equals repair enumeration on the single store.
func TestDifferentialShardedVsSingleVsNaive(t *testing.T) {
	const cases = 500
	const shards = 4

	rng := rand.New(rand.NewSource(20180610))
	qOpts := gen.DefaultQueryOptions()
	dbOpts := gen.DBOptions{BlocksPerRelation: 2, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.7}

	eng := engine.New(engine.Options{})
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
		sh, err := shard.NewSharded("t", shards, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.ApplyDB(seed); err != nil {
			t.Fatalf("case %d: sharded ApplyDB: %v", done, err)
		}
		if _, err := sh.ApplyDB(batch); err != nil {
			t.Fatalf("case %d: sharded write batch: %v", done, err)
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
			if _, err := sh.Delete(dels...); err != nil {
				t.Fatalf("case %d: sharded delete: %v", done, err)
			}
		}

		ref := single.Snapshot()
		union := sh.View().Union()
		if u, r := union.String(), ref.DB.String(); u != r {
			t.Fatalf("case %d: sharded union diverged from the single store:\n%s\nvs\n%s", done, u, r)
		}
		want := naive.IsCertain(q, ref.DB)
		got, err := eng.Certain(q, union)
		if err != nil {
			t.Fatalf("case %d: engine on the union: %v", done, err)
		}
		if got != want {
			t.Fatalf("case %d: engine on the union = %v, naive = %v\nquery: %s\ndb:\n%s",
				done, got, want, q, ref.DB)
		}
		sh.Close()
	}
}
