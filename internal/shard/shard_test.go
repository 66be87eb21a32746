package shard_test

import (
	"fmt"
	"testing"

	"cqa/internal/schema"
	"cqa/internal/shard"
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
