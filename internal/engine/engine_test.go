package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

func figure1() *db.Database {
	return parse.MustDatabase(`
		P(p1 | v1)
		P(p1 | v2)
		N(c | v2)
	`)
}

func mustQuery(t *testing.T, src string) schema.Query {
	t.Helper()
	q, err := parse.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCertainMatchesCore(t *testing.T) {
	e := New(Options{})
	q := mustQuery(t, "P(x | y), !N('c' | y)")
	d := figure1()
	// The tree walk over the rewriting: the compiled program the engine
	// runs is not its own reference.
	want, err := core.Certain(q, d, core.EngineRewriting)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Certain(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("engine = %v, core = %v", got, want)
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CachedPlans != 1 {
		t.Fatalf("expected one miss and one cached plan, got %+v", st)
	}
}

func TestPrepareCacheHitsAlphaVariants(t *testing.T) {
	e := New(Options{})
	variants := []string{
		"R(x | y), !S(x | y)",
		"R(a | b), !S(a | b)",
		"!S(u | w), R(u | w)",
	}
	var first *core.Shape
	for i, src := range variants {
		p, err := e.Prepare(mustQuery(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p.Shape
		} else if p.Shape != first {
			t.Fatalf("variant %q did not hit the cached plan", src)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
}

func TestPrepareErrorNotCached(t *testing.T) {
	e := New(Options{})
	bad := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"))),
		schema.Neg(schema.NewAtom("N", 1, schema.Var("z"))), // unsafe: z not positive
	)
	if _, err := e.Prepare(bad); err == nil {
		t.Fatal("expected validation error")
	}
	st := e.Stats()
	if st.CachedPlans != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// One distinct shape more than the plan cache holds.
	shape := func(i int) schema.Query { return mustQuery(t, fmt.Sprintf("R%d(x | y)", i)) }
	e := New(Options{})
	for i := 0; i <= DefaultCacheSize; i++ {
		if _, err := e.Prepare(shape(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CachedPlans != DefaultCacheSize || st.CacheEvictions != 1 {
		t.Fatalf("plans/evictions = %d/%d, want %d/1", st.CachedPlans, st.CacheEvictions, DefaultCacheSize)
	}
	// Shape 0 was least recently used and must have been evicted:
	// preparing it again misses.
	before := st.CacheMisses
	if _, err := e.Prepare(shape(0)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CacheMisses; got != before+1 {
		t.Fatalf("expected re-prepare of evicted plan to miss (misses %d -> %d)", before, got)
	}
	// The last shape stays cached: preparing it hits.
	beforeHits := e.Stats().CacheHits
	if _, err := e.Prepare(shape(DefaultCacheSize)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CacheHits; got != beforeHits+1 {
		t.Fatal("expected the last shape to still be cached")
	}
}

func TestCertainBatch(t *testing.T) {
	e := New(Options{})
	rng := rand.New(rand.NewSource(11))
	q := mustQuery(t, "P(x | y), !N('c' | y)")
	items := make([]Item, 16)
	want := make([]bool, len(items))
	for i := range items {
		d := gen.Database(rng, q, gen.DefaultDBOptions())
		items[i] = Item{Query: q, DB: d}
		ans, err := core.Certain(q, d, core.EngineRewriting)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans
	}
	results := e.CertainBatch(context.Background(), items)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Certain != want[i] {
			t.Fatalf("item %d: batch = %v, core = %v", i, r.Certain, want[i])
		}
	}
	if st := e.Stats(); st.CacheMisses != 1 {
		t.Fatalf("one shared plan expected, misses = %d", st.CacheMisses)
	}
}

func TestCertainBatchErrorIsolation(t *testing.T) {
	e := New(Options{})
	good := mustQuery(t, "P(x | y)")
	bad := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"))),
		schema.Neg(schema.NewAtom("N", 1, schema.Var("z"))),
	)
	d := figure1()
	items := []Item{
		{Query: good, DB: d},
		{Query: bad, DB: d},
		{Query: good, DB: d},
	}
	results := e.CertainBatch(context.Background(), items)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good items errored: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("bad item did not error")
	}
	if !results[0].Certain || !results[2].Certain {
		t.Fatal("P(x | y) is certain on figure1")
	}
}

func TestCertainBatchCancellation(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	q := mustQuery(t, "P(x | y)")
	d := figure1()
	// Cancel before the batch starts: the context is checked before each
	// group, so no item is evaluated and every one carries the context
	// error.
	cancel()
	items := make([]Item, 64)
	for i := range items {
		items[i] = Item{Query: q, DB: d}
	}
	results := e.CertainBatch(ctx, items)
	skipped := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped != len(items) {
		t.Fatalf("cancelled batch: %d of %d items carry the context error", skipped, len(items))
	}
}

func TestStatsString(t *testing.T) {
	e := New(Options{})
	if _, err := e.Prepare(mustQuery(t, "R(x | y)")); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().String()
	for _, frag := range []string{"cache:", "results:"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("stats string %q missing %q", s, frag)
		}
	}
}
