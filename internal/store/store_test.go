package store_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/store"
)

func TestMemStoreVersioningAndSnapshots(t *testing.T) {
	st := store.NewMem("t", nil)
	if v := st.Version(); v != 0 {
		t.Fatalf("fresh store version = %d, want 0", v)
	}
	if _, err := st.Declare("R", 2, 1); err != nil {
		t.Fatal(err)
	}
	s1 := st.Snapshot()
	ch, err := st.Insert(db.F("R", "a", "1"), db.F("R", "a", "2"))
	if err != nil {
		t.Fatal(err)
	}
	if ch.Version != 2 || ch.Applied != 2 {
		t.Fatalf("insert change = %+v, want version 2, applied 2", ch)
	}
	if len(ch.Rels) != 1 || ch.Rels[0] != "R" {
		t.Fatalf("touched rels = %v, want [R]", ch.Rels)
	}
	if len(ch.Blocks) != 2 || ch.Blocks[0].Rel != "R" || ch.Blocks[0].Key[0] != "a" {
		t.Fatalf("touched blocks = %+v", ch.Blocks)
	}
	// The old snapshot is immutable: it still sees zero facts.
	if s1.DB.Size() != 0 {
		t.Fatalf("old snapshot mutated: size = %d", s1.DB.Size())
	}
	s2 := st.Snapshot()
	if s2.Version != 2 || s2.DB.Size() != 2 {
		t.Fatalf("snapshot = v%d size %d, want v2 size 2", s2.Version, s2.DB.Size())
	}
	if s2.DB.IsConsistent() {
		t.Fatal("two key-equal facts should be inconsistent")
	}

	// Deletes shrink blocks; version moves again.
	if _, err := st.Delete(db.F("R", "a", "1")); err != nil {
		t.Fatal(err)
	}
	s3 := st.Snapshot()
	if s3.Version != 3 || s3.DB.Size() != 1 || !s3.DB.IsConsistent() {
		t.Fatalf("after delete: v%d size %d consistent %v", s3.Version, s3.DB.Size(), s3.DB.IsConsistent())
	}
	// s2 still sees both facts.
	if s2.DB.Size() != 2 {
		t.Fatal("published snapshot changed after a later delete")
	}
}

func TestNoOpWritesDoNotBumpVersion(t *testing.T) {
	st := store.NewMem("t", nil)
	st.Declare("R", 2, 1)
	st.Insert(db.F("R", "a", "1"))
	v := st.Version()
	for _, ch := range []func() (store.Change, error){
		func() (store.Change, error) { return st.Insert(db.F("R", "a", "1")) }, // duplicate
		func() (store.Change, error) { return st.Delete(db.F("R", "z", "9")) }, // absent
		func() (store.Change, error) { return st.Declare("R", 2, 1) },          // re-declare
	} {
		c, err := ch()
		if err != nil {
			t.Fatal(err)
		}
		if c.Applied != 0 || c.Version != v {
			t.Fatalf("no-op write changed state: %+v (version was %d)", c, v)
		}
	}
	if st.Version() != v {
		t.Fatalf("version drifted to %d", st.Version())
	}
}

func TestApplyErrorsLeaveStoreUntouched(t *testing.T) {
	st := store.NewMem("t", nil)
	st.Declare("R", 2, 1)
	st.Insert(db.F("R", "a", "1"))
	v := st.Version()
	if _, err := st.Insert(db.F("R", "b", "2"), db.F("R", "only-one-arg")); err == nil {
		t.Fatal("arity mismatch should fail the batch")
	}
	if _, err := st.Declare("R", 3, 1); err == nil {
		t.Fatal("signature clash should fail")
	}
	s := st.Snapshot()
	if s.Version != v || s.DB.Size() != 1 || s.DB.Has(db.F("R", "b", "2")) {
		t.Fatalf("failed batch leaked state: v%d size %d", s.Version, s.DB.Size())
	}
}

func TestOnApplyOrderingAndContent(t *testing.T) {
	st := store.NewMem("t", nil)
	var got []store.Change
	st.SetOnApply(func(c store.Change) { got = append(got, c) })
	st.Declare("R", 2, 1)
	st.Insert(db.F("R", "a", "1"))
	st.Insert(db.F("R", "a", "1")) // no-op: no callback
	st.Delete(db.F("R", "a", "1"))
	if len(got) != 3 {
		t.Fatalf("callbacks = %d, want 3 (no-ops silent)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Version != got[i-1].Version+1 {
			t.Fatalf("callback versions out of order: %+v", got)
		}
	}
	if !reflect.DeepEqual(got[2].Rels, []string{"R"}) {
		t.Fatalf("delete change rels = %v", got[2].Rels)
	}
}

// The hook reports what readers see: the snapshot read from inside it
// is the write's own, at the change's version, and consecutive hook
// snapshots differ in exactly the reported blocks. The serving layer's
// result-cache maintenance rests on this.
func TestOnApplyViewsDifferByTheChange(t *testing.T) {
	check := func(name string, st *store.Store) func() int {
		prev := st.Snapshot()
		calls := 0
		st.SetOnApply(func(c store.Change) {
			calls++
			cur := st.Snapshot()
			if cur.Version != c.Version {
				t.Errorf("%s change v%d: hook snapshot at v%d", name, c.Version, cur.Version)
			}
			dirty := make(map[string]bool)
			for _, b := range c.Blocks {
				dirty[b.Rel+"|"+b.Key[0]] = true
			}
			for _, rel := range []string{"R", "S"} {
				for k := 0; k < 6; k++ {
					key := []string{fmt.Sprint("k", k)}
					before, after := prev.DB.Block(rel, key), cur.DB.Block(rel, key)
					if changed := fmt.Sprint(before) != fmt.Sprint(after); changed != dirty[rel+"|"+key[0]] {
						t.Errorf("%s change v%d: block %s(%s) changed = %v, reported dirty = %v",
							name, c.Version, rel, key[0], changed, dirty[rel+"|"+key[0]])
					}
				}
			}
			prev = cur
		})
		return func() int { return calls }
	}
	primary := store.NewMem("d", nil)
	primaryCalls := check("primary", primary)
	if _, err := primary.ApplyDB(parse.MustDatabase("R(k0 | a)\nR(k1 | a)\nS(k2 | a)\nS(k3 | a)")); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Insert(db.F("R", "k4", "b"), db.F("S", "k0", "b"), db.F("R", "k5", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Delete(db.F("R", "k0", "a"), db.F("S", "k3", "a")); err != nil {
		t.Fatal(err)
	}
	if n := primaryCalls(); n != 3 {
		t.Fatalf("%d primary hook calls, want 3", n)
	}
}

func TestApplyDBAndDeleteDB(t *testing.T) {
	st := store.NewMem("t", nil)
	src := parse.MustDatabase("R(a | 1)\nR(a | 2)\nS(x | y)")
	ch, err := st.ApplyDB(src)
	if err != nil {
		t.Fatal(err)
	}
	// 2 declares + 3 inserts, one version bump.
	if ch.Applied != 5 || ch.Version != 1 {
		t.Fatalf("ApplyDB change = %+v", ch)
	}
	if !reflect.DeepEqual(ch.Rels, []string{"R", "S"}) {
		t.Fatalf("ApplyDB rels = %v", ch.Rels)
	}
	del := parse.MustDatabase("R(a | 1)")
	if _, err := st.WriteDB(nil, del, true); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if s.DB.Size() != 2 || s.DB.Has(db.F("R", "a", "1")) {
		t.Fatalf("WriteDB delete left %d facts", s.DB.Size())
	}

	// A batch whose declaration clashes with the store applies nothing,
	// not even its valid declaration.
	decls := db.New()
	decls.MustDeclare("T", 2, 1)
	decls.MustDeclare("R", 3, 1)
	if _, err := st.WriteDB(decls, del, true); err == nil {
		t.Fatal("redeclaring R with another signature succeeded")
	}
	if got := st.Snapshot(); got.Version != s.Version || got.DB.Relation("T") != nil {
		t.Fatalf("rejected batch moved the store to v%d (T declared: %v)", got.Version, got.DB.Relation("T") != nil)
	}
}

func TestDurableRoundTripAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opt := store.Options{Dir: dir, CheckpointEvery: 4}
	st, err := store.Open("people", opt)
	if err != nil {
		t.Fatal(err)
	}
	st.Declare("R", 2, 1)
	for _, f := range []db.Fact{
		db.F("R", "a", "1"), db.F("R", "a", "2"), db.F("R", "b", "1"),
	} {
		if _, err := st.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	// 4 records (1 declare + 3 inserts) ≥ CheckpointEvery: auto-checkpoint,
	// which truncates the log to nothing.
	stats := st.Stats()
	if stats.Checkpoints == 0 || stats.SegmentRecords != 0 {
		t.Fatalf("expected auto-checkpoint: %+v", stats)
	}
	fi, err := os.Stat(filepath.Join(dir, "people.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("WAL is %d bytes after a checkpoint, want 0", fi.Size())
	}
	st.Delete(db.F("R", "a", "2"))
	want := st.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open("people", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Snapshot()
	if got.Version != want.Version {
		t.Fatalf("recovered version = %d, want %d", got.Version, want.Version)
	}
	if got.DB.String() != want.DB.String() {
		t.Fatalf("recovered db:\n%s\nwant:\n%s", got.DB.String(), want.DB.String())
	}
	// Writes continue from the recovered version.
	ch, err := re.Insert(db.F("R", "c", "9"))
	if err != nil {
		t.Fatal(err)
	}
	if ch.Version != want.Version+1 {
		t.Fatalf("post-recovery version = %d, want %d", ch.Version, want.Version+1)
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	st := store.NewMem("t", nil)
	snap := st.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(db.F("R", "a", "1")); err == nil {
		t.Fatal("write after Close should fail")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_ = snap.DB.Size() // snapshots outlive Close
}

func TestSetCreateAdoptAndReopen(t *testing.T) {
	dir := t.TempDir()
	set, err := store.OpenSet(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if names := set.Names(); len(names) != 0 {
		t.Fatalf("fresh set has members: %v", names)
	}
	st, err := set.Create(context.Background(), "alpha", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Create(context.Background(), "alpha", nil, nil); !errors.Is(err, store.ErrExists) {
		t.Fatalf("duplicate Create: %v, want ErrExists", err)
	}
	if _, err := set.Create(context.Background(), "../evil", nil, nil); err == nil {
		t.Fatal("path-traversal name should fail")
	}
	st.Declare("R", 1, 1)
	st.Insert(db.F("R", "x"))
	mem := store.NewMem("mem", parse.MustDatabase("S(a | b)"))
	if err := set.Adopt(mem); err != nil {
		t.Fatal(err)
	}
	if got := set.Names(); !reflect.DeepEqual(got, []string{"alpha", "mem"}) {
		t.Fatalf("names = %v", got)
	}
	if err := set.CloseAll(); err != nil {
		t.Fatal(err)
	}

	// Reopen discovers alpha (durable) but not mem (memory-only).
	set2, err := store.OpenSet(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.CloseAll()
	if got := set2.Names(); !reflect.DeepEqual(got, []string{"alpha"}) {
		t.Fatalf("reopened names = %v", got)
	}
	if d := set2.Get("alpha").Snapshot().DB; !d.Has(db.F("R", "x")) {
		t.Fatal("reopened store lost facts")
	}
}

// A data directory holding the store files of a database split into
// shards (the "<name>.s<i>" layout) is refused, naming the file, rather
// than opened as unrelated databases; Create keeps the suffix reserved.
func TestSetRefusesShardStoreFiles(t *testing.T) {
	dir := t.TempDir()
	opt := store.Options{Dir: dir}
	st, err := store.Open("x.s0", opt)
	if err != nil {
		t.Fatal(err)
	}
	st.Declare("R", 2, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenSet(opt); err == nil || !strings.Contains(err.Error(), "x.s0.wal") && !strings.Contains(err.Error(), "x.s0.snap") {
		t.Fatalf("OpenSet over x.s0's files: %v, want an error naming the file", err)
	}

	set, err := store.OpenSet(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.CloseAll()
	if _, err := set.Create(context.Background(), "x.s3", nil, nil); err == nil {
		t.Fatal("reserved shard-suffix name accepted")
	}
	if _, err := set.Create(context.Background(), "x.s", nil, nil); err != nil {
		t.Fatalf("plain dotted name refused: %v", err)
	}
}

// A crash between checkpoint and WAL truncation leaves the log
// double-covering the checkpoint; replay must not double-apply.
func TestRecoveryWithStaleWALRecords(t *testing.T) {
	dir := t.TempDir()
	opt := store.Options{Dir: dir, CheckpointEvery: 1 << 30}
	st, err := store.Open("d", opt)
	if err != nil {
		t.Fatal(err)
	}
	st.Declare("R", 2, 1)
	st.Insert(db.F("R", "a", "1"))
	st.Delete(db.F("R", "a", "1"))
	st.Insert(db.F("R", "a", "2"))
	// Simulate the crash window: checkpoint written, WAL not truncated.
	walPath := filepath.Join(dir, "d.wal")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := st.Snapshot()
	st.Close()
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open("d", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Snapshot()
	if got.Version != want.Version || got.DB.String() != want.DB.String() {
		t.Fatalf("double-covered replay diverged: v%d\n%s\nwant v%d\n%s",
			got.Version, got.DB.String(), want.Version, want.DB.String())
	}
}
