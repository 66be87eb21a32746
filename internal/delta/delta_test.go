package delta

import (
	"sync"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// harness wires one memory store into a Manager the way the server
// does: OnApply captures the (change, snapshot) pair synchronously, and
// the OnReeval hook counts decisions by outcome.
type harness struct {
	t   *testing.T
	st  *store.Store
	mgr *Manager

	mu      sync.Mutex
	decided map[string]uint64
}

// onReeval is the harness's Hooks.OnReeval.
func (h *harness) onReeval(_, outcome string) {
	h.mu.Lock()
	h.decided[outcome]++
	h.mu.Unlock()
}

// counters reports how many (change, subscribed entry) decisions
// skipped, re-evaluated without a flip, and flipped.
func (h *harness) counters() (skipped, reevaluated, flipped uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.decided[OutcomeSkipped], h.decided[OutcomeReevaluated], h.decided[OutcomeFlipped]
}

func newHarness(t *testing.T, seed string, opt Options) *harness {
	t.Helper()
	base, err := parse.Database(seed)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, st: store.NewMem("test", base), mgr: New(opt), decided: make(map[string]uint64)}
	h.mgr.SetHooks(Hooks{OnReeval: h.onReeval})
	h.st.SetOnApply(func(c store.Change) {
		snap := h.st.Snapshot()
		h.mgr.Apply("test", c, func() *db.Database { return snap.DB })
	})
	t.Cleanup(h.mgr.Close)
	return h
}

func (h *harness) watch(query string) (*Watch, State) {
	h.t.Helper()
	q, err := parse.Query(query)
	if err != nil {
		h.t.Fatal(err)
	}
	prep, err := core.Prepare(q)
	if err != nil {
		h.t.Fatal(err)
	}
	snap := h.st.Snapshot()
	w, state, err := h.mgr.Register("test", query, prep, Snapshot{DB: snap.DB, Version: snap.Version})
	if err != nil {
		h.t.Fatal(err)
	}
	return w, state
}

func (h *harness) insert(rel, key, val string) store.Change {
	h.t.Helper()
	c, err := h.st.Insert(db.F(rel, key, val))
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

func (h *harness) delete(rel, key, val string) store.Change {
	h.t.Helper()
	c, err := h.st.Delete(db.F(rel, key, val))
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

// TestDeltaSkipFlip is the core behavior check: irrelevant relations
// and blocks of other keys skip, a write to the query's own key is
// carried to a flip, and verdict flips publish exact events.
func TestDeltaSkipFlip(t *testing.T) {
	h := newHarness(t, "R(k0 | v0)\nR(k9 | v0)\nR(k9 | v1)\nR(k5 | v1)\nT(t0 | u0)\n", Options{})
	w, state := h.watch("R('k0' | 'v0')")
	if !state.Verdict {
		t.Fatalf("initial verdict false, want true (block k0 is {v0})")
	}

	// A write to an unmentioned relation must skip.
	h.insert("T", "t1", "u1")
	h.mgr.Quiesce("test")
	skipped, reevaled, flipped := h.counters()
	if skipped != 1 || reevaled != 0 || flipped != 0 {
		t.Fatalf("after T write: counters=(%d,%d,%d), want (1,0,0)", skipped, reevaled, flipped)
	}

	// Deleting R(k9|v1) dirties only block k9. The query is co-keyed
	// with key 'k0', so a block of another key holds no valuation of it
	// and the registration must skip.
	h.delete("R", "k9", "v1")
	h.mgr.Quiesce("test")
	skipped, reevaled, flipped = h.counters()
	if skipped != 2 || reevaled != 0 || flipped != 0 {
		t.Fatalf("after k9 delete: counters=(%d,%d,%d), want (2,0,0)", skipped, reevaled, flipped)
	}
	select {
	case ev := <-w.Events():
		t.Fatalf("unexpected event %+v", ev)
	default:
	}

	// Writing into block k0 dirties the query's one key: the carry rule
	// re-checks that block and flips the verdict.
	c := h.insert("R", "k0", "v1")
	h.mgr.Quiesce("test")
	_, _, flipped = h.counters()
	if flipped != 1 {
		t.Fatalf("flipped=%d, want 1", flipped)
	}
	ev := <-w.Events()
	if ev.Version != c.Version || !ev.From || ev.To || ev.Resync {
		t.Fatalf("flip event %+v, want version=%d from=true to=false", ev, c.Version)
	}
	if len(ev.Blocks) != 1 || ev.Blocks[0] != "R(k0)" {
		t.Fatalf("trigger blocks %v, want [R(k0)]", ev.Blocks)
	}
	if st := w.State(); st.Version != c.Version || st.Verdict {
		t.Fatalf("state %+v, want version=%d verdict=false", st, c.Version)
	}
}

// TestDeltaNewValueForcesReeval: a write whose block carries a value the
// database did not know before — here the query's own key constant —
// must reach the watch. The query is co-keyed, so the carry rule
// re-checks the new block and publishes the flip.
func TestDeltaNewValueForcesReeval(t *testing.T) {
	h := newHarness(t, "R(k0 | v0)\n", Options{})
	w, state := h.watch("R('fresh' | y)")
	if state.Verdict {
		t.Fatalf("initial verdict true, want false ('fresh' has no block)")
	}
	c := h.insert("R", "fresh", "v0")
	h.mgr.Quiesce("test")
	ev := <-w.Events()
	if ev.Version != c.Version || ev.From || !ev.To {
		t.Fatalf("flip event %+v, want version=%d false→true", ev, c.Version)
	}
}

// TestDeltaNonFOFallback: a watch whose query is not co-keyed, FO or
// not, has the one rule left besides advancing: a write to a relation
// it does not mention skips, a write to one it mentions re-evaluates.
// Either way the watched verdict stays exact.
func TestDeltaNonFOFallback(t *testing.T) {
	for _, tc := range []struct{ name, query string }{
		{"fo", "R(x | y), S(y | z)"},      // keys x and y differ
		{"non-fo", "R(x | y), !S(y | x)"}, // the paper's canonical non-FO query
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, "R(a | b)\nS(b | a)\nT(t0 | u0)\n", Options{})
			w, _ := h.watch(tc.query)
			q := parse.MustQuery(tc.query)
			if _, coKeyed := q.CoKey(); coKeyed {
				t.Fatal("query is co-keyed; the carry rule would decide it")
			}
			h.insert("T", "t9", "u9")
			if skipped, reevaled, flipped := h.counters(); skipped != 1 || reevaled+flipped != 0 {
				t.Fatalf("after T write: counters=(%d,%d,%d), want (1,0,0)", skipped, reevaled, flipped)
			}
			h.insert("S", "b", "c")
			if skipped, reevaled, flipped := h.counters(); skipped != 1 || reevaled+flipped != 1 {
				t.Fatalf("after S write: counters=(%d,%d,%d), want one re-evaluation", skipped, reevaled, flipped)
			}
			if got, want := w.State().Verdict, naive.IsCertain(q, h.st.Snapshot().DB); got != want {
				t.Fatalf("watched verdict %v, repair enumeration %v", got, want)
			}
		})
	}
}

// TestDeltaSlowConsumerResync: a full event queue sheds flips and the
// next deliverable event arrives as a Resync state event.
func TestDeltaSlowConsumerResync(t *testing.T) {
	h := newHarness(t, "R(k0 | v0)\n", Options{})
	w, _ := h.watch("R('k0' | 'v0')")
	// Three flips more than the queue holds, without draining, alternating
	// true→false (insert) and false→true (delete); an odd count ends false.
	const flips = DefaultWatchBuffer + 3
	for i := 0; i < flips; i++ {
		if i%2 == 0 {
			h.insert("R", "k0", "v1")
		} else {
			h.delete("R", "k0", "v1")
		}
	}
	h.mgr.Quiesce("test")

	for i := 0; i < DefaultWatchBuffer; i++ {
		ev := <-w.Events()
		if want := i%2 == 1; ev.Resync || ev.To != want || ev.From == want {
			t.Fatalf("event %d %+v, want plain flip to %v", i, ev, want)
		}
	}
	// The flips past the queue were shed; the next write's settled state
	// must arrive as a resync carrying the latest verdict.
	h.insert("R", "k0", "v2")
	h.mgr.Quiesce("test")
	ev := <-w.Events()
	if !ev.Resync {
		t.Fatalf("next delivered event %+v, want Resync after shedding", ev)
	}
	if ev.To != false {
		t.Fatalf("resync verdict %v, want false", ev.To)
	}
}

// TestDeltaUnregisterCloses: unregistering closes the event channel.
func TestDeltaUnregisterCloses(t *testing.T) {
	h := newHarness(t, "R(k0 | v0)\n", Options{})
	w, _ := h.watch("R('k0' | y)")
	h.mgr.Unregister(w)
	h.mgr.Quiesce("test")
	if _, ok := <-w.Events(); ok {
		t.Fatalf("events channel still open after Unregister")
	}
}
