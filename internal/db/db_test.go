package db_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cqa/internal/db"
)

func girlsBoys(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	// Figure 1 of the paper.
	for _, f := range []db.Fact{
		db.F("R", "Alice", "Bob"), db.F("R", "Alice", "George"),
		db.F("R", "Maria", "Bob"), db.F("R", "Maria", "John"),
		db.F("S", "Bob", "Alice"), db.F("S", "Bob", "Maria"),
		db.F("S", "George", "Alice"), db.F("S", "George", "Maria"),
	} {
		d.MustInsert(f)
	}
	return d
}

func TestFigure1Blocks(t *testing.T) {
	d := girlsBoys(t)
	if d.Size() != 8 {
		t.Fatalf("size = %d, want 8", d.Size())
	}
	if d.IsConsistent() {
		t.Fatal("Figure 1 database should be inconsistent")
	}
	if got := len(d.Block("R", []string{"Alice"})); got != 2 {
		t.Errorf("Alice block = %d facts, want 2", got)
	}
	if got := d.NumRepairs(); got != 16 {
		t.Errorf("repairs = %v, want 2^4 = 16", got)
	}
}

func TestRepairEnumeration(t *testing.T) {
	d := girlsBoys(t)
	count := 0
	seen := make(map[string]bool)
	d.Repairs(nil, func(r *db.Database) bool {
		count++
		if !r.IsConsistent() {
			t.Fatal("repair is inconsistent")
		}
		if r.Size() != 4 {
			t.Fatalf("repair size = %d, want 4 (one per block)", r.Size())
		}
		key := r.String()
		if seen[key] {
			t.Fatal("duplicate repair enumerated")
		}
		seen[key] = true
		return true
	})
	if count != 16 {
		t.Fatalf("enumerated %d repairs, want 16", count)
	}
}

func TestRepairEarlyStop(t *testing.T) {
	d := girlsBoys(t)
	count := 0
	d.Repairs(nil, func(r *db.Database) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: %d callbacks", count)
	}
}

func TestRepairsRestrictedRelations(t *testing.T) {
	d := girlsBoys(t)
	count := 0
	d.Repairs([]string{"R"}, func(r *db.Database) bool {
		count++
		if len(r.Facts("S")) != 0 {
			t.Fatal("restricted repair contains S-facts")
		}
		return true
	})
	if count != 4 {
		t.Fatalf("R-only repairs = %d, want 4", count)
	}
}

func TestInsertDuplicateIsNoop(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustInsert(db.F("R", "a", "b"))
	d.MustInsert(db.F("R", "a", "b"))
	if d.Size() != 1 {
		t.Fatalf("size = %d after duplicate insert", d.Size())
	}
}

func TestInsertErrors(t *testing.T) {
	d := db.New()
	if err := d.Insert(db.F("R", "a")); err == nil {
		t.Error("insert into undeclared relation should fail")
	}
	d.MustDeclare("R", 2, 1)
	if err := d.Insert(db.F("R", "a")); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestDeclareClash(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	if err := d.DeclareRelation("R", 2, 1); err != nil {
		t.Errorf("idempotent declare failed: %v", err)
	}
	if err := d.DeclareRelation("R", 2, 2); err == nil {
		t.Error("signature clash should fail")
	}
	if err := d.DeclareRelation("X", 0, 0); err == nil {
		t.Error("invalid signature should fail")
	}
}

func TestHasAndFactsOrder(t *testing.T) {
	d := girlsBoys(t)
	if !d.Has(db.F("R", "Alice", "Bob")) {
		t.Error("Has missed a present fact")
	}
	if d.Has(db.F("R", "Alice", "John")) {
		t.Error("Has found a ghost")
	}
	if d.Has(db.F("Q", "a")) {
		t.Error("Has on unknown relation should be false")
	}
	facts := d.Facts("R")
	for i := 1; i < len(facts); i++ {
		if facts[i-1].String() > facts[i].String() {
			t.Fatal("Facts not sorted")
		}
	}
}

func TestActiveDomain(t *testing.T) {
	d := girlsBoys(t)
	dom := d.ActiveDomain()
	want := []string{"Alice", "Bob", "George", "John", "Maria"}
	if len(dom) != len(want) {
		t.Fatalf("active domain = %v", dom)
	}
	for i := range want {
		if dom[i] != want[i] {
			t.Fatalf("active domain = %v, want %v", dom, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	d := girlsBoys(t)
	c := d.Clone()
	c.MustInsert(db.F("R", "Zoe", "Bob"))
	if d.Has(db.F("R", "Zoe", "Bob")) {
		t.Error("Clone shares storage")
	}
	if c.Size() != d.Size()+1 {
		t.Error("Clone lost facts")
	}
}

func TestColumnValues(t *testing.T) {
	d := girlsBoys(t)
	r := d.Relation("R")
	col0 := r.ColumnValues(0)
	if len(col0) != 2 || col0[0] != "Alice" || col0[1] != "Maria" {
		t.Errorf("column 0 = %v", col0)
	}
	if got := r.NumBlocks(); got != 2 {
		t.Errorf("blocks = %d", got)
	}
}

func TestBlocksIteration(t *testing.T) {
	d := girlsBoys(t)
	total := 0
	d.Blocks("R", func(b []db.Fact) bool {
		total += len(b)
		return true
	})
	if total != 4 {
		t.Errorf("facts via blocks = %d, want 4", total)
	}
	// Early stop.
	n := 0
	d.Blocks("R", func(b []db.Fact) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d blocks", n)
	}
}

// Property: the number of enumerated repairs equals the product of block
// sizes, and every repair picks exactly one fact per block.
func TestRepairCountProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := db.New()
		d.MustDeclare("R", 2, 1)
		d.MustDeclare("S", 1, 1)
		keys := []string{"k1", "k2", "k3"}
		vals := []string{"v1", "v2", "v3"}
		for i := 0; i < 6; i++ {
			d.MustInsert(db.F("R", keys[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		d.MustInsert(db.F("S", "s"))
		want := d.NumRepairs()
		got := 0
		d.Repairs(nil, func(r *db.Database) bool {
			got++
			return true
		})
		return float64(got) == want
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// The enumeration callback's database must not leak mutations across
// iterations: after enumeration the original database is intact.
func TestRepairsDoNotMutateOriginal(t *testing.T) {
	d := girlsBoys(t)
	before := d.String()
	d.Repairs(nil, func(r *db.Database) bool { return true })
	if d.String() != before {
		t.Error("Repairs mutated the original database")
	}
}

// Block iteration order must depend only on the stored content: a
// database reached by inserts and removes iterates exactly like one
// built directly from the surviving facts.
func TestBlocksDeterministicAfterRemoval(t *testing.T) {
	build := func(insert []db.Fact, remove []db.Fact) *db.Database {
		d := db.New()
		d.MustDeclare("R", 2, 1)
		for _, f := range insert {
			d.MustInsert(f)
		}
		for _, f := range remove {
			d.Remove(f)
		}
		return d
	}
	blockOrder := func(d *db.Database) []string {
		var order []string
		d.Blocks("R", func(b []db.Fact) bool {
			order = append(order, b[0].Args[0])
			return true
		})
		return order
	}
	// Same surviving facts via two different histories.
	a := build(
		[]db.Fact{db.F("R", "c", "1"), db.F("R", "a", "1"), db.F("R", "b", "1")},
		[]db.Fact{db.F("R", "c", "1")})
	b := build(
		[]db.Fact{db.F("R", "a", "1"), db.F("R", "b", "1")},
		nil)
	ga, gb := blockOrder(a), blockOrder(b)
	if len(ga) != 2 || ga[0] != "a" || ga[1] != "b" {
		t.Fatalf("block order after removal = %v, want [a b]", ga)
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("histories diverge: %v vs %v", ga, gb)
		}
	}
	// Re-inserting a removed block key lands it back in sorted position.
	a.MustInsert(db.F("R", "aa", "1"))
	if got := blockOrder(a); got[0] != "a" || got[1] != "aa" || got[2] != "b" {
		t.Fatalf("block order after re-insert = %v, want [a aa b]", got)
	}
}

// Removal must keep the column value index exact: removed-only values
// disappear, shared values survive while referenced.
func TestColumnValuesExactAfterRemoval(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustInsert(db.F("R", "a", "x"))
	d.MustInsert(db.F("R", "a", "y"))
	d.MustInsert(db.F("R", "b", "x"))
	d.Remove(db.F("R", "a", "x"))
	r := d.Relation("R")
	if got := r.ColumnValues(0); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("column 0 after removal = %v, want [a b]", got)
	}
	d.Remove(db.F("R", "a", "y"))
	if got := r.ColumnValues(0); len(got) != 1 || got[0] != "b" {
		t.Errorf("column 0 after removing all a-facts = %v, want [b]", got)
	}
	if got := r.ColumnValues(1); len(got) != 1 || got[0] != "x" {
		t.Errorf("column 1 = %v, want [x]", got)
	}
	if r.NumBlocks() != 1 {
		t.Errorf("blocks = %d, want 1", r.NumBlocks())
	}
	// Removing an absent fact is a no-op.
	d.Remove(db.F("R", "z", "z"))
	if d.Size() != 1 {
		t.Errorf("size = %d after no-op removal, want 1", d.Size())
	}
}

// A COW clone shares untouched relations and deep-copies named ones;
// mutating the copied relation must not leak into the original.
func TestCloneCOW(t *testing.T) {
	d := girlsBoys(t)
	c := d.CloneCOW("R")
	c.MustInsert(db.F("R", "Zoe", "Bob"))
	c.Remove(db.F("R", "Alice", "Bob"))
	if d.Has(db.F("R", "Zoe", "Bob")) || !d.Has(db.F("R", "Alice", "Bob")) {
		t.Fatal("CloneCOW leaked R mutations into the original")
	}
	if !c.Has(db.F("S", "Bob", "Alice")) {
		t.Fatal("CloneCOW lost shared relation S")
	}
	if c.Size() != d.Size() {
		t.Fatalf("clone size = %d, original %d", c.Size(), d.Size())
	}
	if names := c.RelationNames(); len(names) != 2 {
		t.Fatalf("clone relations = %v", names)
	}
	// Declaring a new relation on the clone must not appear on the original.
	c.MustDeclare("T", 1, 1)
	if d.Relation("T") != nil {
		t.Fatal("CloneCOW shares the relation registry")
	}
}

func TestStringFormat(t *testing.T) {
	d := db.New()
	d.MustDeclare("R", 3, 2)
	d.MustInsert(db.F("R", "a", "b", "c"))
	if got := d.String(); got != "R(a, b | c)\n" {
		t.Errorf("String = %q", got)
	}
}

func TestRelationNames(t *testing.T) {
	d := girlsBoys(t)
	names := d.RelationNames()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Errorf("names = %v", names)
	}
}

// Repairs inserts the facts of singleton blocks once and branches over
// the other blocks only. On databases mixing both kinds, what it
// enumerates must still be the repairs: pairwise distinct, each a maximal
// consistent subset (one fact of the database from every block), as many
// as NumRepairs says — and freezing a repair inside the callback must not
// disturb the next one.
func TestRepairsMixedBlocks(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := db.New()
		d.MustDeclare("R", 2, 1)
		d.MustDeclare("S", 3, 2)
		for k := 0; k < 12; k++ {
			key := string(rune('a' + k))
			d.MustInsert(db.F("R", key, "v0"))
			d.MustInsert(db.F("S", key, "k", "v0"))
			// About one block in four gets a second or third fact.
			for extra := 1; extra <= 2 && rng.Intn(4) == 0; extra++ {
				d.MustInsert(db.F("R", key, string(rune('0'+extra))))
			}
			if rng.Intn(6) == 0 {
				d.MustInsert(db.F("S", key, "k", "v1"))
			}
		}
		blocks := d.Relation("R").NumBlocks() + d.Relation("S").NumBlocks()
		seen := map[string]bool{}
		d.Repairs(nil, func(r *db.Database) bool {
			if rng.Intn(3) == 0 {
				r.Interned()
			}
			text := r.String()
			if seen[text] {
				t.Fatalf("seed %d: repair enumerated twice:\n%s", seed, text)
			}
			seen[text] = true
			if !r.IsConsistent() || r.Size() != blocks {
				t.Fatalf("seed %d: not one fact per block (%d blocks):\n%s", seed, blocks, text)
			}
			for _, f := range r.AllFacts() {
				if !d.Has(f) {
					t.Fatalf("seed %d: repair holds %v, the database does not", seed, f)
				}
			}
			return true
		})
		if float64(len(seen)) != d.NumRepairs() {
			t.Fatalf("seed %d: %d repairs enumerated, NumRepairs = %v", seed, len(seen), d.NumRepairs())
		}
	}
}
