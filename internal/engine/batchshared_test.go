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
// shared-pass grouping collapses.
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

// The shared pass groups identical (signature, snapshot) items into one
// evaluation: verdicts match a per-item loop of Certain on the same
// engine exactly and the shared counter accounts for every collapsed
// item.
func TestCertainBatchShares(t *testing.T) {
	items, _ := batchWorkload(t, 4)

	e := New(Options{Workers: 4})
	defer e.Close()
	got := e.CertainBatch(context.Background(), items)

	for i, it := range items {
		want, err := e.Certain(it.Query, it.DB)
		if got[i].Err != nil || err != nil {
			t.Fatalf("item %d errored: batch=%v per-item=%v", i, got[i].Err, err)
		}
		if got[i].Certain != want {
			t.Fatalf("item %d: batch=%v per-item=%v", i, got[i].Certain, want)
		}
	}
	// The per-item loop is not a batch: the counters are the batch's.
	st := e.Stats()
	if st.BatchItems != 64 {
		t.Fatalf("BatchItems = %d, want 64", st.BatchItems)
	}
	// 64 items over 4 distinct (query, db) groups: 60 shared.
	if st.BatchSharedItems != 60 {
		t.Fatalf("BatchSharedItems = %d, want 60", st.BatchSharedItems)
	}
}

// Alpha-equivalent queries share a group (grouping is by canonical
// signature), and items on different snapshots do not.
func TestCertainBatchGroupKeys(t *testing.T) {
	e := New(Options{Workers: 2})
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
	if st := e.Stats(); st.BatchSharedItems != 2 {
		t.Fatalf("BatchSharedItems = %d, want 2 (one per alpha-variant pair)", st.BatchSharedItems)
	}
}

// A failing shared evaluation propagates its error to every member of
// the group, and error counting covers all of them.
func TestCertainBatchSharedErrorFanout(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	bad := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"))),
		schema.Neg(schema.NewAtom("N", 1, schema.Var("z"))), // unsafe
	)
	d := db.New()
	items := []Item{{Query: bad, DB: d}, {Query: bad, DB: d}, {Query: bad, DB: d}}
	res := e.CertainBatch(context.Background(), items)
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("item %d: expected error", i)
		}
	}
	if st := e.Stats(); st.BatchErrors != 3 {
		t.Fatalf("BatchErrors = %d, want 3", st.BatchErrors)
	}
}

// The grouping bookkeeping is pooled: steady-state CertainBatch calls
// stay within a small per-item allocation budget (the result slice, the
// per-item signature canonicalization, and worker startup — not
// per-call maps, channels, or member slices). This is the allocs/op
// assertion for the sync.Pool satellite; regressions that reintroduce
// per-call bookkeeping allocations trip the bound.
func TestCertainBatchAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking in -short")
	}
	items, _ := batchWorkload(t, 4)
	e := New(Options{Workers: 4})
	defer e.Close()
	// Warm plan cache, bound cache, lazy bitset indexes, and the scratch
	// pool.
	for i := 0; i < 3; i++ {
		e.CertainBatch(context.Background(), items)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.CertainBatch(context.Background(), items)
		}
	})
	// 64 items: signature canonicalization is ~6 allocs/item and worker
	// startup ~2/worker; 12×items is comfortable headroom above that
	// but far below the unpooled bookkeeping this guards against.
	maxAllocs := int64(12 * len(items))
	if got := res.AllocsPerOp(); got > maxAllocs {
		t.Fatalf("CertainBatch allocs/op = %d, want ≤ %d (pooled scratch regressed?)", got, maxAllocs)
	}
	t.Logf("CertainBatch: %d ns/op, %d allocs/op (%d items)", res.NsPerOp(), res.AllocsPerOp(), len(items))
}

func BenchmarkCertainBatch(b *testing.B) {
	items, _ := batchWorkload(b, 4)
	e := New(Options{Workers: 4})
	defer e.Close()
	e.CertainBatch(context.Background(), items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CertainBatch(context.Background(), items)
	}
}
