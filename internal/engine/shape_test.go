package engine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// pointQuery is the ground-key join of the point workloads: certain iff
// some R-fact of key k has no S-fact of key k with the same value.
func pointQuery(k string) string { return fmt.Sprintf("R('%s' | x), !S('%s' | x)", k, k) }

// Reads of 20 000 distinct keys of one shape prepare one plan: the
// first read misses, every other hits, and the cache holds one entry.
// Every key's verdict is the one its facts imply.
func TestOnePlanPerShape(t *testing.T) {
	const keys = 20000
	e := engine.New(engine.Options{})
	defer e.Close()
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		d.MustInsert(db.F("R", k, "v"))
		if i%3 == 0 {
			d.MustInsert(db.F("S", k, "v"))
		}
	}
	sh := store.NewMem("d", d)
	for i := 0; i < keys; i++ {
		certain, _, err := answer(e, parse.MustQuery(pointQuery(fmt.Sprintf("k%d", i))), "d", sh.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if want := i%3 != 0; certain != want {
			t.Fatalf("k%d: certain = %v, want %v", i, certain, want)
		}
	}
	if st := e.Stats(); st.CachedPlans != 1 || st.CacheMisses != 1 || st.CacheHits != keys-1 {
		t.Fatalf("%d plans from %d misses and %d hits; want 1 plan, 1 miss", st.CachedPlans, st.CacheMisses, st.CacheHits)
	}
}

// Eight readers bind distinct keys of one shape into the plan they share
// while a writer advances the store: every verdict, served from the
// table of maintained verdicts or evaluated on the shared bound program,
// is the tree walker's verdict on the snapshot of the version it was
// read at. Run under -race (make delta-stress).
func TestParamBindRace(t *testing.T) {
	const readers, reads, keys = 8, 300, 64
	e := engine.New(engine.Options{})
	defer e.Close()
	var facts string
	for i := 0; i < keys; i++ {
		facts += fmt.Sprintf("R(k%d | v%d)\n", i, i%3)
		if i%2 == 0 {
			facts += fmt.Sprintf("S(k%d | v%d)\n", i, i%3)
		}
	}
	sh := carryStore(e, "d", facts)

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for n := 0; n < reads; n++ {
				// Keys beyond the data bind values the database lacks.
				q := parse.MustQuery(pointQuery(fmt.Sprintf("k%d", rng.Intn(keys+8))))
				snap := sh.Snapshot()
				dbID := "d"
				if n%2 == 1 {
					dbID = "" // bypass the table: evaluate on the shared Bound
				}
				got, _, err := answer(e, q, dbID, snap)
				if err != nil {
					t.Error(err)
					return
				}
				p, err := core.Prepare(q)
				if err != nil {
					t.Error(err)
					return
				}
				if want := p.CertainTreeWalk(snap.DB); got != want {
					t.Errorf("%s at v%d: served %v, the snapshot says %v", q, snap.Version, got, want)
					return
				}
			}
		}(r)
	}
	readersDone := make(chan struct{})
	go func() { wg.Wait(); close(readersDone) }()
	rng := rand.New(rand.NewSource(5))
	for writing := true; writing; {
		select {
		case <-readersDone:
			writing = false
		default:
		}
		f := db.F([]string{"R", "S"}[rng.Intn(2)], fmt.Sprintf("k%d", rng.Intn(keys)), fmt.Sprintf("v%d", rng.Intn(3)))
		var err error
		if rng.Intn(2) == 0 {
			_, err = sh.Insert(f)
		} else {
			_, err = sh.Delete(f)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CachedPlans != 1 || st.CacheMisses != 1 {
		t.Errorf("%d plans from %d misses; want one plan for the one shape", st.CachedPlans, st.CacheMisses)
	}
}

// BenchmarkPointRead is one point_single read in process: parse, Plan
// (a hit on the one shape) and Answer on a store of 20 000 keys,
// through the table of maintained verdicts, which the key stream
// overflows as the benchmark's does.
func BenchmarkPointRead(b *testing.B) {
	const keys = 20000
	e := engine.New(engine.Options{})
	defer e.Close()
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		d.MustInsert(db.F("R", k, "v"))
		d.MustInsert(db.F("R", k, "w"))
		if i%3 == 0 {
			d.MustInsert(db.F("S", k, "v"))
		}
	}
	sh := store.NewMem("d", d)
	srcs := make([]string, keys)
	for i := range srcs {
		srcs[i] = pointQuery(fmt.Sprintf("k%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q, err := parse.Query(srcs[n*7919%keys])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := answer(e, q, "d", sh.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}
