package store_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// 32 concurrent snapshot readers against a writer loop on one store:
// run under -race (make race covers this package). Readers must always
// observe an internally consistent snapshot — the invariant maintained
// by the writer (every R key has either both or neither of its two
// value facts) can never be seen half-applied.
func TestRaceSnapshotReadersVsWriter(t *testing.T) {
	st := store.NewMem("race", nil)
	if _, err := st.Declare("R", 2, 1); err != nil {
		t.Fatal(err)
	}

	const readers = 32
	const writes = 200
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: for each round, atomically insert a two-fact block, then
	// atomically delete it. Any snapshot must see 0 or 2 facts per key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < writes; i++ {
			key := string(rune('a' + i%8))
			pair := []db.Fact{db.F("R", key, "x"), db.F("R", key, "y")}
			if _, err := st.Insert(pair...); err != nil {
				t.Error(err)
				return
			}
			if _, err := st.Delete(pair...); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				snap := st.Snapshot()
				if snap.Version < last {
					t.Errorf("version went backwards: %d after %d", snap.Version, last)
					return
				}
				last = snap.Version
				// Torn-write check: block sizes are 0 or 2, never 1.
				snap.DB.Blocks("R", func(b []db.Fact) bool {
					if len(b) != 2 {
						t.Errorf("snapshot v%d sees torn block of %d facts", snap.Version, len(b))
						return false
					}
					return true
				})
				// Exercise the read paths that memoize state.
				_ = snap.DB.ActiveDomain()
				_ = snap.DB.NumRepairs()
				_ = snap.DB.IsConsistent()
				reads.Add(1)
			}
		}()
	}
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers never ran")
	}
	if got := st.Version(); got != 2*writes+1 { // declare + insert/delete pairs
		t.Fatalf("final version = %d, want %d", got, 2*writes+1)
	}
}

// Concurrent writers through a Set: creates, adopts, and mutations from
// many goroutines must be safe.
func TestRaceSetConcurrentUse(t *testing.T) {
	set, err := store.OpenSet(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.CloseAll()
	seed := parse.MustDatabase("R(a | 1)")
	if err := set.Adopt(store.NewMem("shared", seed)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := set.Get("shared")
			for i := 0; i < 50; i++ {
				val := string(rune('0' + g))
				if _, err := st.Insert(db.F("R", "k", val)); err != nil {
					t.Error(err)
					return
				}
				_ = st.Snapshot().DB.Size()
				_ = set.Names()
			}
		}(g)
	}
	wg.Wait()
	if got := set.Get("shared").Snapshot().DB.Size(); got != 9 {
		t.Fatalf("final size = %d, want 9 (seed + 8 distinct values)", got)
	}
}
