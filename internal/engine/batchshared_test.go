package engine

import (
	"context"
	"fmt"
	"testing"

	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

// batchWorkload builds a 64-item batch over nQueries distinct queries
// cycling against one shared snapshot — the duplicate-heavy shape the
// batch answers once per distinct query.
func batchWorkload(tb testing.TB, nQueries int) ([]Item, *db.Database) {
	tb.Helper()
	d := db.New()
	d.MustDeclare("Lives", 2, 1)
	d.MustDeclare("Born", 2, 1)
	d.MustDeclare("Likes", 2, 2)
	for i := 0; i < 128; i++ {
		p := fmt.Sprintf("p%03d", i%48)
		c := fmt.Sprintf("c%03d", i%31)
		d.MustInsert(db.F("Lives", p, c))
		if i%5 == 0 {
			d.MustInsert(db.F("Born", p, c))
		}
	}
	queries := []string{
		"Lives(p | t), !Born(p | t), !Likes(p, t)",
		"Lives(p | t), !Born(p | t)",
		"Born(p | t), !Likes(p, t)",
		"Lives(p | t), !Likes(t, p)",
	}
	if nQueries > len(queries) {
		tb.Fatalf("batchWorkload supports up to %d queries", len(queries))
	}
	items := make([]Item, 64)
	for i := range items {
		q, err := parse.Query(queries[i%nQueries])
		if err != nil {
			tb.Fatal(err)
		}
		items[i] = Item{Query: q, DB: d}
	}
	return items, d
}

// The batch groups identical (signature, snapshot) items into one
// evaluation: verdicts match a per-item loop of Certain on the same
// engine exactly, and the batch looks a plan up once per group.
func TestCertainBatchShares(t *testing.T) {
	items, _ := batchWorkload(t, 4)

	e := New(Options{})
	defer e.Close()
	got := e.CertainBatch(context.Background(), items)
	// 64 items over 4 distinct (query, db) groups: 4 plan look-ups.
	if st := e.Stats(); st.CacheHits+st.CacheMisses != 4 {
		t.Fatalf("plan look-ups = %d, want 4 (one per group)", st.CacheHits+st.CacheMisses)
	}

	for i, it := range items {
		want, err := e.Certain(it.Query, it.DB)
		if got[i].Err != nil || err != nil {
			t.Fatalf("item %d errored: batch=%v per-item=%v", i, got[i].Err, err)
		}
		if got[i].Certain != want {
			t.Fatalf("item %d: batch=%v per-item=%v", i, got[i].Certain, want)
		}
	}
}

// Alpha-equivalent queries share a group (grouping is by canonical
// signature), and items on different snapshots do not.
func TestCertainBatchGroupKeys(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	d1 := db.New()
	d1.MustDeclare("R", 2, 1)
	d1.MustInsert(db.F("R", "a", "1"))
	d2 := db.New() // empty R: not certain
	d2.MustDeclare("R", 2, 1)

	q1, err := parse.Query("R(x | y)")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := parse.Query("R(u | w)") // alpha-variant of q1
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{
		{Query: q1, DB: d1}, {Query: q2, DB: d1}, // one group
		{Query: q1, DB: d2}, {Query: q2, DB: d2}, // another group
	}
	res := e.CertainBatch(context.Background(), items)
	if res[0].Certain != true || res[1].Certain != true {
		t.Fatalf("d1 verdicts: %+v", res[:2])
	}
	if res[2].Certain != false || res[3].Certain != false {
		t.Fatalf("d2 verdicts: %+v", res[2:])
	}
	if st := e.Stats(); st.CacheHits+st.CacheMisses != 2 {
		t.Fatalf("plan look-ups = %d, want 2 (one per alpha-variant pair)", st.CacheHits+st.CacheMisses)
	}
}

// A failing shared evaluation propagates its error to every member of
// the group: one failed preparation, three items carrying its error.
func TestCertainBatchSharedErrorFanout(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	bad := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"))),
		schema.Neg(schema.NewAtom("N", 1, schema.Var("z"))), // unsafe
	)
	d := db.New()
	items := []Item{{Query: bad, DB: d}, {Query: bad, DB: d}, {Query: bad, DB: d}}
	res := e.CertainBatch(context.Background(), items)
	for i, r := range res {
		if r.Err == nil || r.Err != res[0].Err {
			t.Fatalf("item %d: err = %v, want the group's error %v", i, r.Err, res[0].Err)
		}
	}
	if st := e.Stats(); st.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1 (one preparation for the group)", st.CacheMisses)
	}
}

// Steady-state CertainBatch calls stay within a small per-item
// allocation budget: the result slice, the per-item signature
// canonicalization, the grouping map and one read per group.
// Regressions that add per-item bookkeeping or evaluate per item
// instead of per group trip the bound.
func TestCertainBatchAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking in -short")
	}
	items, _ := batchWorkload(t, 4)
	e := New(Options{})
	defer e.Close()
	// Warm plan cache, bound cache and lazy bitset indexes.
	for i := 0; i < 3; i++ {
		e.CertainBatch(context.Background(), items)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.CertainBatch(context.Background(), items)
		}
	})
	// 64 items: signature canonicalization is ~6 allocs/item; 12×items
	// is comfortable headroom above that.
	maxAllocs := int64(12 * len(items))
	if got := res.AllocsPerOp(); got > maxAllocs {
		t.Fatalf("CertainBatch allocs/op = %d, want ≤ %d", got, maxAllocs)
	}
	t.Logf("CertainBatch: %d ns/op, %d allocs/op (%d items)", res.NsPerOp(), res.AllocsPerOp(), len(items))
}

func BenchmarkCertainBatch(b *testing.B) {
	items, _ := batchWorkload(b, 4)
	e := New(Options{})
	defer e.Close()
	e.CertainBatch(context.Background(), items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CertainBatch(context.Background(), items)
	}
}
