package delta

import (
	"sync"
	"testing"
)

// Identical subscriptions share one subscribed entry: one decision
// per change, every member gets the flip event, and the fan-in counts
// track joins and leaves.
func TestDeltaFanInShares(t *testing.T) {
	var mu sync.Mutex
	var lastW, lastG int
	h := newHarness(t, "R(k0 | v0)\nT(t0 | u0)\n", Options{})
	h.mgr.SetHooks(Hooks{
		OnReeval: h.onReeval,
		OnFanin: func(watches, groups int) {
			mu.Lock()
			lastW, lastG = watches, groups
			mu.Unlock()
		},
	})

	w1, s1 := h.watch("R(x | y), !T(x | y)")
	w2, s2 := h.watch("R(x | y), !T(x | y)") // same signature: joins w1's group
	w3, _ := h.watch("T(x | y)")             // its own group

	if s1.Verdict != s2.Verdict || s1.Version != s2.Version {
		t.Fatalf("joined watch state %+v != leader state %+v", s2, s1)
	}
	if w, g := h.mgr.FanIn(); w != 3 || g != 2 {
		t.Fatalf("FanIn = (%d, %d), want (3, 2)", w, g)
	}
	mu.Lock()
	if lastW != 3 || lastG != 2 {
		t.Fatalf("OnFanin last = (%d, %d), want (3, 2)", lastW, lastG)
	}
	mu.Unlock()

	// One decision per group per change, not per watch: this insert
	// touches only T, so the R-group skips and the T-group re-evaluates
	// — two decisions for three watches.
	base := func() uint64 { s, r, f := h.counters(); return s + r + f }()
	h.insert("T", "t1", "u1")
	h.mgr.Quiesce("test")
	if got := func() uint64 { s, r, f := h.counters(); return s + r + f }() - base; got != 2 {
		t.Fatalf("decisions per change = %d, want 2 (one per group)", got)
	}

	// A flip reaches every member of the shared group.
	h.insert("T", "k0", "v0") // falsifies !T(x|y) at R's witness
	h.mgr.Quiesce("test")
	for i, w := range []*Watch{w1, w2} {
		select {
		case ev := <-w.Events():
			if ev.To != false || ev.Resync {
				t.Fatalf("watch %d: unexpected event %+v", i, ev)
			}
		default:
			t.Fatalf("watch %d: no flip event delivered", i)
		}
	}

	// Leaving a shared group keeps it alive for the remaining member;
	// the last leave dissolves it.
	h.mgr.Unregister(w2)
	h.mgr.Quiesce("test")
	if w, g := h.mgr.FanIn(); w != 2 || g != 2 {
		t.Fatalf("after first leave: FanIn = (%d, %d), want (2, 2)", w, g)
	}
	h.mgr.Unregister(w1)
	h.mgr.Unregister(w3)
	h.mgr.Quiesce("test")
	if w, g := h.mgr.FanIn(); w != 0 || g != 0 {
		t.Fatalf("after all leaves: FanIn = (%d, %d), want (0, 0)", w, g)
	}
}

// A watch joining an existing group still maintains its own published
// state and event queue: un-consumed members gap independently.
func TestDeltaFanInIndependentQueues(t *testing.T) {
	h := newHarness(t, "R(k0 | v0)\n", Options{})
	w1, _ := h.watch("R(x | y)")
	w2, _ := h.watch("R(x | y)")

	// Flip i deletes (even i, to false) or re-inserts (odd i, to true).
	flip := func(i int) {
		if i%2 == 0 {
			h.delete("R", "k0", "v0")
		} else {
			h.insert("R", "k0", "v0")
		}
		h.mgr.Quiesce("test")
	}
	// One flip more than the queue holds. A consumer that reads between
	// flips (w1) sees every one; one that never reads (w2) keeps the
	// first DefaultWatchBuffer and gaps the last into a later resync.
	const flips = DefaultWatchBuffer + 1
	for i := 0; i < flips; i++ {
		flip(i)
		if ev := <-w1.Events(); ev.Resync || ev.To != (i%2 == 1) {
			t.Fatalf("w1 event %d: %+v", i, ev)
		}
	}
	for i := 0; i < DefaultWatchBuffer; i++ {
		if ev := <-w2.Events(); ev.Resync || ev.To != (i%2 == 1) {
			t.Fatalf("w2 event %d: %+v", i, ev)
		}
	}
	if st := w2.State(); st.Verdict != false {
		t.Fatalf("w2 published state: %+v", st)
	}
	// The next flip is plain for w1 and a resync for the gapped w2.
	flip(flips)
	if ev := <-w1.Events(); ev.Resync || ev.To != true {
		t.Fatalf("w1 after the gap: %+v", ev)
	}
	if ev := <-w2.Events(); !ev.Resync || ev.To != true {
		t.Fatalf("w2 after the gap: %+v, want a resync to true", ev)
	}
}

// Close drops every database, closing its watches, and resets the fan-in
// population.
func TestDeltaFanInDrop(t *testing.T) {
	h := newHarness(t, "R(k0 | v0)\n", Options{})
	w1, _ := h.watch("R(x | y)")
	w2, _ := h.watch("R(x | y)")
	if w, g := h.mgr.FanIn(); w != 2 || g != 1 {
		t.Fatalf("FanIn = (%d, %d), want (2, 1)", w, g)
	}
	h.mgr.Close()
	for range w1.Events() {
	}
	for range w2.Events() {
	}
	if w, g := h.mgr.FanIn(); w != 0 || g != 0 {
		t.Fatalf("after drop: FanIn = (%d, %d), want (0, 0)", w, g)
	}
}
