package server

import (
	"testing"
	"time"

	"cqa/internal/naive"
	"cqa/internal/parse"
)

// A watched query's entry is the one the read path looks up: after a
// write to a relation it mentions, the watch re-evaluates it at the
// write's version, and a read at that version is a hit with the verdict
// repair enumeration gives — also for a query that is not co-keyed,
// whose unwatched entry the write would have dropped.
func TestWatchedReadIsHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, DBCreateRequest{Name: "d", Facts: "R(a | b)\nS(b | c)\n"})
	const src = "R(x | y), S(y | z)"
	q := parse.MustQuery(src)
	w, state, err := s.Engine().RegisterWatch(q, "d", s.stores.Get("d").Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Engine().UnregisterWatch(w)
	if !state.Verdict {
		t.Fatalf("initial state %+v, want certain", state)
	}

	wr := decodeBody[DBWriteResponse](t, postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "R(a | d)"}))
	for deadline := time.Now().Add(5 * time.Second); w.State().Version < wr.Version; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("watch state %+v never reached version %d", w.State(), wr.Version)
		}
	}

	ans := decodeBody[CertainResponse](t, postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: src, Database: "d", Explain: true}))
	if ans.Version != wr.Version || ans.Explain == nil || ans.Explain.ResultCache != "hit" {
		t.Fatalf("read at v%d after the write: %+v", wr.Version, ans)
	}
	if want := naive.IsCertain(q, s.stores.Get("d").Snapshot().DB); ans.Certain != want {
		t.Fatalf("served %v, repair enumeration %v", ans.Certain, want)
	}
}
