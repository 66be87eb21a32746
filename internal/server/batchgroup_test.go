package server

import (
	"net/http"
	"testing"
)

// TestBatchGroupingThroughServer: POST /v1/batch plans its query once,
// and repeated named-database items resolve to one snapshot, answered
// once. The verdicts stay per-item.
func TestBatchGroupingThroughServer(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	lookups := func() uint64 {
		st := s.Engine().Stats()
		return st.CacheHits + st.CacheMisses
	}
	base := lookups()

	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Query:     "R(x | y)",
		Databases: []string{"people", "people", "people", "people"},
	})
	ans := decodeBody[BatchResponse](t, resp)
	if len(ans.Results) != 4 {
		t.Fatalf("got %d results", len(ans.Results))
	}
	for i, r := range ans.Results {
		if r.Error != "" || !r.Certain {
			t.Fatalf("result %d = %+v, want certain", i, r)
		}
	}
	// One look-up for the batch, which also gives the verdict field.
	if got := lookups() - base; got != 1 {
		t.Fatalf("plan look-ups = %d, want 1 (4 identical items, one plan)", got)
	}

	// The look-ups are exposed on /v1/stats.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[StatsResponse](t, sresp)
	if got := st.Engine.CacheHits + st.Engine.CacheMisses; got != lookups() {
		t.Fatalf("/v1/stats plan look-ups = %d, engine says %d", got, lookups())
	}

	// Inline-facts items parse fresh databases each: answered one by one,
	// on the one plan.
	base = lookups()
	resp = postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Query: "R(x | y)",
		Facts: []string{"R(a | 1)\n", "R(a | 1)\n"},
	})
	ans = decodeBody[BatchResponse](t, resp)
	if len(ans.Results) != 2 {
		t.Fatalf("got %d results", len(ans.Results))
	}
	if got := lookups() - base; got != 1 {
		t.Fatalf("inline facts: plan look-ups = %d, want 1", got)
	}
}
