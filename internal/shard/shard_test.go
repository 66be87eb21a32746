package shard_test

import (
	"fmt"
	"testing"

	"cqa/internal/db"
	"cqa/internal/schema"
	"cqa/internal/shard"
	"cqa/internal/store"
)

func TestOwnerKeepsBlocksWholeAndSpreads(t *testing.T) {
	// Same block → same shard, whatever the non-key columns do.
	if a, b := shard.Owner("R", []string{"k1"}, 4), shard.Owner("R", []string{"k1"}, 4); a != b {
		t.Fatalf("same block routed to %d and %d", a, b)
	}
	// Boundary confusion: ("ab","c") and ("a","bc") are different blocks.
	if shard.Owner("R", []string{"ab", "c"}, 1<<30) == shard.Owner("R", []string{"a", "bc"}, 1<<30) {
		t.Fatal("key boundary not separated in the hash")
	}
	// All shards get some share of a spread of keys.
	hit := make(map[int]int)
	for i := 0; i < 1000; i++ {
		hit[shard.Owner("R", []string{fmt.Sprintf("k%d", i)}, 4)]++
	}
	for i := 0; i < 4; i++ {
		if hit[i] == 0 {
			t.Fatalf("shard %d owns no blocks out of 1000: %v", i, hit)
		}
	}
}

func TestTouchedPinsGroundKeys(t *testing.T) {
	ground := schema.NewQuery(schema.Pos(schema.NewAtom("R", 1, schema.Const("k"), schema.Var("y"))))
	plan := shard.PlanFor(ground, 4, nil)
	if !plan.Ground || len(plan.Shards) != 1 {
		t.Fatalf("ground-key query plans %+v, want exactly one pinned shard", plan)
	}
	if want := shard.Owner("R", []string{"k"}, 4); plan.Shards[0] != want {
		t.Fatalf("touched shard %d, owner %d", plan.Shards[0], want)
	}
	free := schema.NewQuery(schema.Pos(schema.NewAtom("R", 1, schema.Var("x"), schema.Var("y"))))
	if plan := shard.PlanFor(free, 4, nil); plan.Ground || len(plan.Shards) != 4 {
		t.Fatalf("variable-key query plans %+v, want all shards", plan)
	}
}

func TestSetDiscoversShardedAndLegacyStores(t *testing.T) {
	dir := t.TempDir()
	opt := store.Options{Dir: dir}

	// A legacy single-store database, written through the plain store.
	legacy, err := store.Open("old", opt)
	if err != nil {
		t.Fatal(err)
	}
	legacy.Declare("R", 2, 1)
	legacy.Insert(db.F("R", "a", "1"))
	legacy.Close()

	set, err := shard.OpenSet(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := set.Create("new")
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 4 {
		t.Fatalf("created with %d shards, want 4", sh.NumShards())
	}
	sh.Declare("S", 2, 1)
	for i := 0; i < 20; i++ {
		sh.Insert(db.F("S", fmt.Sprintf("k%d", i), "v"))
	}
	wantVersion := sh.Version()
	wantState := sh.View().Union().String()
	if err := set.CloseAll(); err != nil {
		t.Fatal(err)
	}

	// Rediscovery groups the .s<i> files back into one 4-shard member
	// and adopts the plain file as a 1-shard member.
	set2, err := shard.OpenSet(opt, 2) // different default must not matter
	if err != nil {
		t.Fatal(err)
	}
	defer set2.CloseAll()
	got := set2.Get("new")
	if got == nil || got.NumShards() != 4 {
		t.Fatalf("rediscovered %v, want 4-shard member (names %v)", got, set2.Names())
	}
	if got.Version() != wantVersion || got.View().Union().String() != wantState {
		t.Fatalf("recovered state diverged: v%d vs v%d", got.Version(), wantVersion)
	}
	old := set2.Get("old")
	if old == nil || old.NumShards() != 1 {
		t.Fatalf("legacy store not adopted as single shard (names %v)", set2.Names())
	}
	if !old.View().Shard(0).Has(db.F("R", "a", "1")) {
		t.Fatal("legacy data lost")
	}
	if _, err := set2.Create("x.s3"); err == nil {
		t.Fatal("reserved shard-suffix name accepted")
	}
}
