package engine

import (
	"testing"

	"cqa/internal/parse"
	"cqa/internal/store"
)

// A follower reset may reuse the version numbers of a divergent
// incarnation (DropDB). A read that missed before the reset and
// finishes its evaluation after it must not plant its verdict: a later
// read at the same version number would be served the old
// incarnation's answer.
func TestResultCacheStaleInsertAfterDropDB(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	q := parse.MustQuery("R(x | y)")
	r, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot{DB: parse.MustDatabase("R(a | 1)")}

	_, hit := e.delta.Get("d", r.Sig, r.Prepared, snap, func() bool {
		e.DropDB("d") // the reset lands while the miss evaluates
		return true
	})
	if hit {
		t.Fatal("first look-up hit an empty table")
	}
	if _, hit := e.delta.Get("d", r.Sig, r.Prepared, snap, func() bool { return true }); hit {
		t.Fatal("an evaluation begun before DropDB was inserted after it")
	}
}
