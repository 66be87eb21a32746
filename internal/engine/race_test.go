package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

// TestConcurrentPreparedAndCache hammers one engine — and through it one
// shared Prepared plan and the LRU cache — from 32 goroutines. Run under
// `go test -race ./...`; this is the concurrency contract of the engine:
// plans are immutable after Prepare, databases are safe for concurrent
// readers, and the cache serializes its own bookkeeping.
func TestConcurrentPreparedAndCache(t *testing.T) {
	const goroutines = 32
	const iters = 60

	e := New(Options{})
	hot := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	rng := rand.New(rand.NewSource(99))

	// A fixed pool of databases, shared read-only by all goroutines, and
	// the expected answers computed sequentially up front.
	type testDB struct {
		d    *db.Database
		want bool
	}
	pool := make([]testDB, 8)
	p, err := e.Prepare(hot)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		d := gen.Database(rng, hot, gen.DBOptions{BlocksPerRelation: 6, MaxBlockSize: 2, DomainPerVariable: 4, ConstantBias: 0.7})
		pool[i] = testDB{d: d, want: p.Certain(d)}
	}

	// Churn queries, more shapes than the cache holds, force cache
	// contention and evictions alongside the hot plan.
	churn := make([]string, DefaultCacheSize+64)
	for i := range churn {
		churn[i] = fmt.Sprintf("Q%d(x | y), !M%d(x | y)", i, i)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tc := pool[(g+i)%len(pool)]
				// Hammer the shared Prepared plan directly.
				if got := p.Certain(tc.d); got != tc.want {
					t.Errorf("shared plan: got %v, want %v", got, tc.want)
					return
				}
				// And through the cache (hot query stays resident).
				got, err := e.Certain(hot, tc.d)
				if err != nil {
					t.Error(err)
					return
				}
				if got != tc.want {
					t.Errorf("cached plan: got %v, want %v", got, tc.want)
					return
				}
				// Churn the LRU with goroutine-specific queries.
				q := parse.MustQuery(churn[(g*iters+i)%len(churn)])
				if _, err := e.Prepare(q); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					_ = e.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	st := e.Stats()
	if st.CachedPlans > DefaultCacheSize {
		t.Fatalf("cache exceeded capacity: %d plans", st.CachedPlans)
	}
	if st.CacheHits == 0 || st.CacheEvictions == 0 {
		t.Fatalf("stress run should hit and evict: %+v", st)
	}
}

// TestConcurrentBatches runs many batches concurrently on one engine, so
// their reads and the cache interleave.
func TestConcurrentBatches(t *testing.T) {
	e := New(Options{})
	rng := rand.New(rand.NewSource(100))
	q := parse.MustQuery("P(x | y), !N('c' | y)")
	items := make([]Item, 12)
	for i := range items {
		items[i] = Item{Query: q, DB: gen.Database(rng, q, gen.DefaultDBOptions())}
	}
	want := e.CertainBatch(context.Background(), items)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := e.CertainBatch(context.Background(), items)
			for i := range got {
				if got[i].Err != nil || got[i].Certain != want[i].Certain {
					t.Errorf("item %d: got (%v, %v), want (%v, nil)", i, got[i].Certain, got[i].Err, want[i].Certain)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPrepareSingleFlight releases 16 goroutines onto one engine at
// once, each preparing the same cold signature: exactly one runs
// core.Prepare (one miss), the rest share its plan. A signature whose
// preparation fails reports the error to every caller and caches nothing.
func TestPrepareSingleFlight(t *testing.T) {
	const goroutines = 16
	e := New(Options{})
	good := parse.MustQuery("P(x | y), Q(y | z), !N(x | z)")
	bad := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"))),
		schema.Neg(schema.NewAtom("N", 1, schema.Var("z"))), // unsafe: z not positive
	)
	run := func(q schema.Query) (plans map[*core.Shape]bool, errs int) {
		plans = make(map[*core.Shape]bool)
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				p, err := e.Prepare(q)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs++
				} else {
					plans[p.Shape] = true
				}
			}()
		}
		close(start)
		wg.Wait()
		return plans, errs
	}

	plans, errs := run(good)
	if st := e.Stats(); errs != 0 || len(plans) != 1 || st.CacheMisses != 1 || st.CacheHits != goroutines-1 {
		t.Fatalf("%d errors, %d distinct plans, stats %+v; want one shared plan from one miss", errs, len(plans), st)
	}
	if _, errs := run(bad); errs != goroutines {
		t.Fatalf("%d of %d callers got the preparation error", errs, goroutines)
	}
	if st := e.Stats(); st.CachedPlans != 1 {
		t.Fatalf("a failed preparation was cached: %+v", st)
	}
}
