package engine_test

import (
	"fmt"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// The acceptance property of incremental invalidation: after a write to
// a relation q does not mention, re-answering q is a result-cache hit;
// after a write to a mentioned relation it is a miss, and the recomputed
// answer matches core.Certain on the new snapshot.
func TestResultCacheIncrementalInvalidation(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	st := carryStore(e, "d", "R(a | 1)\nR(a | 2)\nS(a | 1)\nT(z | z)")

	q := parse.MustQuery("R(x | y), !S(y | x)") // mentions R and S, not T
	ask := func() (bool, bool) {
		t.Helper()
		snap := st.Snapshot()
		certain, cached, err := answer(e, q, "d", snap)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Certain(q, snap.DB, core.EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		if certain != want {
			t.Fatalf("served %v at v%d, core.Certain says %v", certain, snap.Version, want)
		}
		return certain, cached
	}

	if _, cached := ask(); cached {
		t.Fatal("first ask must be a miss")
	}
	if _, cached := ask(); !cached {
		t.Fatal("repeat ask at same version must be a hit")
	}

	// Write to T — not mentioned by q: the answer must stay cached even
	// though the version moved.
	if _, err := st.Insert(db.F("T", "new", "fact")); err != nil {
		t.Fatal(err)
	}
	if _, cached := ask(); !cached {
		t.Fatal("write to unmentioned relation must keep the cache hit")
	}

	// Write to R — mentioned by q: the entry must be invalidated and the
	// recomputed answer must match ground truth on the new snapshot.
	if _, err := st.Insert(db.F("R", "b", "7")); err != nil {
		t.Fatal(err)
	}
	if _, cached := ask(); cached {
		t.Fatal("write to mentioned relation must be a cache miss")
	}
	if _, cached := ask(); !cached {
		t.Fatal("recomputed answer must be cached again")
	}

	stats := e.Stats()
	if stats.ResultInvalidations != 1 {
		t.Errorf("invalidations = %d, want 1", stats.ResultInvalidations)
	}
	if stats.ResultHits != 3 || stats.ResultMisses != 2 {
		t.Errorf("result cache hits/misses = %d/%d, want 3/2", stats.ResultHits, stats.ResultMisses)
	}
}

// A no-op write (version unchanged) must not disturb cached answers.
func TestResultCacheNoOpWrite(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	st := carryStore(e, "d", "R(a | 1)")
	q := parse.MustQuery("R(x | y)")
	if _, _, err := answer(e, q, "d", st.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(db.F("R", "a", "1")); err != nil { // duplicate: no-op
		t.Fatal(err)
	}
	if _, cached, _ := answer(e, q, "d", st.Snapshot()); !cached {
		t.Fatal("no-op write must keep the cache hit")
	}
}

// A reader that computed against a pre-write snapshot must not plant a
// stale answer after the write: its put is discarded because the
// version watermark moved.
func TestResultCacheRejectsStalePut(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	st := carryStore(e, "d", "R(a | 1)\nR(a | 2)")
	q := parse.MustQuery("R(x | y)")

	// Take the snapshot before the write, evaluate after it.
	old := st.Snapshot()
	if _, err := st.Delete(db.F("R", "a", "1"), db.F("R", "a", "2")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := answer(e, q, "d", old); err != nil {
		t.Fatal(err)
	}
	// The stale evaluation must not be served at the current version.
	certain, cached, err := answer(e, q, "d", st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("stale put leaked into the current version")
	}
	if certain {
		t.Fatal("empty R cannot be certain for R(x | y)")
	}
}

// Entries are per-database: the same query on two stores does not
// collide.
func TestResultCachePerDatabaseIsolation(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	q := parse.MustQuery("R(x | y), !S(y | x)")
	a := carryStore(e, "a", "R(a | 1)\nS(z | z)")
	b := carryStore(e, "b", "R(a | 1)\nS(1 | a)")
	askOn := func(id string, st *store.Store) (bool, bool) {
		t.Helper()
		certain, cached, err := answer(e, q, id, st.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return certain, cached
	}
	ca, _ := askOn("a", a)
	cb, _ := askOn("b", b)
	if !ca || cb {
		t.Fatalf("answers = %v/%v, want true/false", ca, cb)
	}
	if ca, cached := askOn("a", a); !ca || !cached {
		t.Fatalf("a: certain %v, cached %v; want a cached true", ca, cached)
	}
	if cb, cached := askOn("b", b); cb || !cached {
		t.Fatalf("b: certain %v, cached %v; want a cached false", cb, cached)
	}
}

// LRU eviction keeps the cache bounded: one shape asked with one more
// constant than the capacity leaves the capacity cached, and the least
// recently used signature is the one evicted.
func TestResultCacheEviction(t *testing.T) {
	const n = engine.DefaultResultCacheSize + 1
	e := engine.New(engine.Options{})
	defer e.Close()
	snap := store.NewMem("d", parse.MustDatabase("R(k0 | 1)")).Snapshot()
	ask := func(i int) bool {
		t.Helper()
		_, cached, err := answer(e, parse.MustQuery(fmt.Sprintf("R('k%d' | y)", i)), "d", snap)
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	for i := 0; i < n; i++ {
		ask(i)
	}
	if got := e.Stats().CachedResults; got != engine.DefaultResultCacheSize {
		t.Fatalf("cached results = %d, want %d (capacity)", got, engine.DefaultResultCacheSize)
	}
	if ask(0) {
		t.Error("the least recently used signature was not evicted")
	}
	if !ask(n - 1) {
		t.Error("the most recently used signature was evicted")
	}
}
