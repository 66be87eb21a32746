package shard_test

import (
	"fmt"
	"testing"

	"cqa/internal/db"
	"cqa/internal/parse"
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

// The hook reports what readers see: consecutive views differ in exactly
// the reported blocks, for a batch spread over shards, and for replica
// batches published shard by shard while a sibling has already
// committed the next one.
func TestOnApplyViewsDifferByTheChange(t *testing.T) {
	sh, err := shard.NewSharded("d", 3, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var last *shard.View
	calls := 0
	sh.SetOnApply(func(c store.Change, prev, cur *shard.View) {
		calls++
		if last != nil && prev != last {
			t.Errorf("change v%d: prev is not the view the last change published", c.Version)
		}
		last = cur
		if cur != sh.View() || cur.Version() != c.Version {
			t.Errorf("change v%d: cur is at v%d, published view at v%d", c.Version, cur.Version(), sh.View().Version())
		}
		dirty := make(map[string]bool)
		for _, b := range c.Blocks {
			dirty[b.Rel+"|"+b.Key[0]] = true
		}
		for _, rel := range []string{"R", "S"} {
			for k := 0; k < 6; k++ {
				key := []string{fmt.Sprint("k", k)}
				before, after := prev.Union().Block(rel, key), cur.Union().Block(rel, key)
				if changed := fmt.Sprint(before) != fmt.Sprint(after); changed != dirty[rel+"|"+key[0]] {
					t.Errorf("change v%d: block %s(%s) changed = %v, reported dirty = %v", c.Version, rel, key[0], changed, !changed)
				}
			}
		}
	})
	if _, err := sh.ApplyDB(parse.MustDatabase("R(k0 | a)\nR(k1 | a)\nS(k2 | a)\nS(k3 | a)")); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Insert(db.F("R", "k4", "b"), db.F("S", "k0", "b"), db.F("R", "k5", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Delete(db.F("R", "k0", "a"), db.F("S", "k3", "a")); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("%d hook calls, want 3", calls)
	}

	// Replicas commit outside the facade. Both stores move before either
	// hook runs; each RefreshShard publishes its own shard's batch alone.
	stores := []*store.Store{store.NewMem("f.s0", nil), store.NewMem("f.s1", nil)}
	follower := shard.NewShardedFromStores("f", stores)
	for _, st := range stores {
		if _, err := st.Declare("R", 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	follower.Refresh()
	if _, err := stores[0].Insert(db.F("R", "x", "1")); err != nil {
		t.Fatal(err)
	}
	if _, err := stores[1].Insert(db.F("R", "y", "1")); err != nil {
		t.Fatal(err)
	}
	prev, cur := follower.RefreshShard(1)
	if cur.Version() != prev.Version()+1 || len(cur.Union().Facts("R")) != 1 || cur.Shard(1).Size() != 1 {
		t.Fatalf("after shard 1's hook: v%d → v%d, facts %v", prev.Version(), cur.Version(), cur.Union().Facts("R"))
	}
	prev, cur = follower.RefreshShard(0)
	if cur.Version() != prev.Version()+1 || len(cur.Union().Facts("R")) != 2 || follower.View() != cur {
		t.Fatalf("after shard 0's hook: v%d → v%d, facts %v", prev.Version(), cur.Version(), cur.Union().Facts("R"))
	}
}

// A batch that fails on a later shard has still changed the earlier
// ones, and readers see it: the hook must hear of what did apply, or
// everything cached for the old view goes stale unnoticed.
func TestPartialBatchIsReported(t *testing.T) {
	sh, err := shard.NewSharded("d", 2, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if _, err := sh.Declare("R", 2, 1); err != nil {
		t.Fatal(err)
	}
	var onZero, onOne string
	for i := 0; onZero == "" || onOne == ""; i++ {
		k := fmt.Sprint("k", i)
		if shard.Owner("R", []string{k}, 2) == 0 {
			onZero = k
		} else {
			onOne = k
		}
	}
	var got store.Change
	sh.SetOnApply(func(c store.Change, prev, cur *shard.View) {
		got = c
		if len(prev.Union().Facts("R")) != 0 || len(cur.Union().Facts("R")) != 1 {
			t.Errorf("views: %v → %v", prev.Union().Facts("R"), cur.Union().Facts("R"))
		}
	})
	sh.Shard(1).Close()
	if _, err := sh.Insert(db.F("R", onZero, "v"), db.F("R", onOne, "v")); err == nil {
		t.Fatal("insert into a closed shard succeeded")
	}
	if got.Applied != 1 || len(got.Blocks) != 1 || got.Blocks[0].Key[0] != onZero || got.Version != sh.View().Version() {
		t.Fatalf("reported change %+v, want shard 0's fact at v%d", got, sh.View().Version())
	}
}
