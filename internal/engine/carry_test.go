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
	"cqa/internal/schema"
	"cqa/internal/store"
)

// carryStore is a memory store named id, holding facts and wired to e
// the way the server wires it.
func carryStore(e *engine.Engine, id string, facts string) *store.Store {
	st := store.NewMem(id, parse.MustDatabase(facts))
	st.SetOnApply(func(c store.Change) { e.ApplyChange(id, c, st.Snapshot()) })
	return st
}

// answer reads q on snap through the engine's read path, Plan then
// Answer, and reports whether the result cache answered.
func answer(e *engine.Engine, q schema.Query, dbID string, snap store.Snapshot) (certain, cached bool, err error) {
	r, err := e.Plan(q)
	if err != nil {
		return false, false, err
	}
	certain, cache, err := e.Answer(r, dbID, snap)
	return certain, cache == engine.CacheHit, err
}

// A write to a relation a co-keyed query mentions leaves its entry a hit
// with the verdict that holds at the new version — whichever way the
// verdict moves; only the case the rule leaves open costs an
// invalidation.
func TestResultCacheCarriesCoKeyedEntries(t *testing.T) {
	// One store: the single shard a cqad keeps per database.
	t.Run("shards=1", func(t *testing.T) {
		e := engine.New(engine.Options{})
		defer e.Close()
		var facts string
		for i := 0; i < 24; i++ {
			facts += fmt.Sprintf("R(k%02d | v1)\nS(k%02d | v1)\n", i, i)
		}
		sh := carryStore(e, "d", facts)
		scan := parse.MustQuery("R(x | 'v0'), !S(x | 'v0')")
		point := parse.MustQuery("R('k03' | y), !S('k03' | y)")

		ask := func(q schema.Query, wantCertain, wantCached bool) {
			t.Helper()
			snap := sh.Snapshot()
			certain, cached, err := answer(e, q, "d", snap)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := core.Certain(q, snap.DB, core.EngineNaive)
			if err != nil {
				t.Fatal(err)
			}
			if certain != truth || certain != wantCertain {
				t.Fatalf("%s at v%d: served %v, repair enumeration %v, expected %v", q, snap.Version, certain, truth, wantCertain)
			}
			if cached != wantCached {
				t.Fatalf("%s at v%d: cached = %v, want %v", q, snap.Version, cached, wantCached)
			}
		}
		write := func(del bool, rel, key, val string) {
			t.Helper()
			var err error
			if del {
				_, err = sh.Delete(db.F(rel, key, val))
			} else {
				_, err = sh.Insert(db.F(rel, key, val))
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		ask(scan, false, false)
		ask(point, false, false) // R(k03|v1) is matched by S(k03|v1)
		ask(scan, false, true)

		write(false, "R", "k20", "v2") // ¬o, ¬b: stays false
		ask(scan, false, true)
		write(false, "R", "k30", "v0") // b: a witness appears
		ask(scan, true, true)
		write(false, "R", "k31", "v0") // b again, o already true
		ask(scan, true, true)
		write(false, "R", "k07", "v7") // o ∧ ¬a: the witnesses are elsewhere
		ask(scan, true, true)
		ask(point, false, true) // none of those blocks is k03's
		write(true, "S", "k03", "v1")
		ask(point, true, true) // b on the ground key's own block

		before := e.Stats()
		write(false, "S", "k30", "v0") // o ∧ a ∧ ¬b: k30 was a witness, k31 still is
		if got := e.Stats().ResultInvalidations - before.ResultInvalidations; got != 1 {
			t.Fatalf("open case: %d invalidations, want 1", got)
		}
		ask(scan, true, false)
		ask(scan, true, true)
		write(false, "S", "k31", "v0") // open again, and this time it flips
		ask(scan, false, false)

		st := e.Stats()
		if st.ResultInvalidations != 2 {
			t.Errorf("invalidations = %d, want 2 (the two open cases)", st.ResultInvalidations)
		}
		// Each of the seven writes touched a relation both queries mention.
		if st.ResultCarried != 2*7-2 {
			t.Errorf("carried = %d, want 12", st.ResultCarried)
		}
	})
}

// A full cache of ground-key answers rides out a write to some other key
// without one evaluation: no plan is looked up, let alone run.
func TestResultCacheGroundKeysCostNothing(t *testing.T) {
	const entries = engine.DefaultResultCacheSize
	e := engine.New(engine.Options{})
	defer e.Close()
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	for i := 0; i < entries; i++ {
		d.MustInsert(db.F("R", fmt.Sprintf("k%d", i), "v"))
	}
	sh := store.NewMem("d", d)
	sh.SetOnApply(func(c store.Change) { e.ApplyChange("d", c, sh.Snapshot()) })

	queries := make([]schema.Query, entries)
	for i := range queries {
		queries[i] = parse.MustQuery(fmt.Sprintf("R('k%d' | y), !S('k%d' | y)", i, i))
		if certain, _, err := answer(e, queries[i], "d", sh.Snapshot()); err != nil || !certain {
			t.Fatalf("k%d: certain = %v, err = %v", i, certain, err)
		}
	}
	before := e.Stats()
	if _, err := sh.Insert(db.F("R", "elsewhere", "v"), db.F("S", "elsewhere", "v")); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if got := after.ResultCarried - before.ResultCarried; got != entries {
		t.Fatalf("carried %d entries, want %d", got, entries)
	}
	if after.ResultInvalidations != 0 {
		t.Fatalf("%d invalidations, want 0", after.ResultInvalidations)
	}
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("the write looked plans up (%d hits, %d misses): something was evaluated",
			after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses)
	}
	for i, q := range queries {
		if certain, cached, err := answer(e, q, "d", sh.Snapshot()); err != nil || !certain || !cached {
			t.Fatalf("k%d after the write: certain = %v, cached = %v, err = %v", i, certain, cached, err)
		}
	}
}

// 31 readers and a writer share one store: whatever interleaving of
// hits, misses, puts and carries they produce, an answer served for a
// snapshot is the answer of that snapshot — nothing computed at one
// version is served at the next. Run under -race.
func TestResultCacheCarryRace(t *testing.T) {
	const readers, reads = 31, 400
	e := engine.New(engine.Options{})
	defer e.Close()
	var facts string
	for i := 0; i < 8; i++ {
		// Values are keys too, so that the one query that is not co-keyed
		// has something to join.
		facts += fmt.Sprintf("R(k%d | k%d)\nS(k%d | k%d)\n", i, i%3, i, (i+1)%3)
	}
	sh := carryStore(e, "d", facts)

	var queries []schema.Query
	var preps []*core.Prepared
	for _, src := range []string{
		"R(x | 'k0')", "R(x | 'k1'), !S(x | 'k1')", "R(x | y), !S(x | y)", "R(x | y), S(x | 'k2')",
		"R('k1' | y), !S('k1' | y)", "R('k2' | 'k2')", "R(x | y), S(y | z)",
	} {
		q := parse.MustQuery(src)
		p, err := core.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		queries, preps = append(queries, q), append(preps, p)
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for n := 0; n < reads; n++ {
				i := rng.Intn(len(queries))
				snap := sh.Snapshot()
				got, _, err := answer(e, queries[i], "d", snap)
				if err != nil {
					t.Error(err)
					return
				}
				if want := preps[i].CertainTreeWalk(snap.DB); got != want {
					t.Errorf("%s at v%d: served %v, the snapshot says %v", queries[i], snap.Version, got, want)
					return
				}
			}
		}(r)
	}
	// The writer keeps writing for as long as anyone reads.
	readersDone := make(chan struct{})
	go func() { wg.Wait(); close(readersDone) }()
	rng := rand.New(rand.NewSource(7))
	for writing := true; writing; {
		select {
		case <-readersDone:
			writing = false
		default:
		}
		f := db.F([]string{"R", "S"}[rng.Intn(2)], fmt.Sprintf("k%d", rng.Intn(8)), fmt.Sprintf("k%d", rng.Intn(3)))
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
	if st := e.Stats(); st.ResultCarried == 0 || st.ResultInvalidations == 0 || st.ResultHits == 0 {
		t.Errorf("the run did not mix carries, invalidations and hits: %+v", st)
	}
}
