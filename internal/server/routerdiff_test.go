package server

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/shard"
)

// countingShard is a shard server behind a per-path request counter.
func countingShard(t *testing.T, hits *sync.Map) *httptest.Server {
	t.Helper()
	s := New(Options{Databases: map[string]*db.Database{}})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := hits.LoadOrStore(r.URL.Path, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func hitsOf(hits *sync.Map, path string) int64 {
	if n, ok := hits.Load(path); ok {
		return n.(*atomic.Int64).Load()
	}
	return 0
}

// TestRouterDifferential is the router-level oracle check for the
// shard plan: over seeded databases with inconsistent blocks and empty
// negated relations, and queries of every plan shape, the router's
// answer equals a single store's and repair enumeration's — and the
// shards' /v1/db/facts export is requested by union plans only.
func TestRouterDifferential(t *testing.T) {
	const n = 3
	var hits sync.Map
	shardURLs := make([]string, n)
	for i := range shardURLs {
		shardURLs[i] = countingShard(t, &hits).URL
	}
	rt := NewRouter(RouterOptions{Shards: shardURLs, Options: Options{Engine: engine.New(engine.Options{})}})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	_, single := newTestServer(t, Options{Databases: map[string]*db.Database{}})

	rng := rand.New(rand.NewSource(20181018))
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(6)) }
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(3)) }
	// farKey returns a key owned by another shard than k's.
	farKey := func(k string) string {
		for i := 0; ; i++ {
			if f := fmt.Sprintf("k%d", i); shard.Owner("", []string{f}, n) != shard.Owner("", []string{k}, n) {
				return f
			}
		}
	}
	// Each shape names the plan kind it must get on n shards.
	shapes := []struct {
		kind string
		make func() string
	}{
		{shard.PlanPinned, func() string { k := key(); return fmt.Sprintf("R('%s' | x), !S('%s' | x)", k, k) }},
		{shard.PlanPinned, func() string {
			k := key()
			return fmt.Sprintf("R('%s' | x), S('%s' | x), !T('%s' | '%s')", k, k, k, val())
		}},
		{shard.PlanPinned, func() string { return fmt.Sprintf("R('%s' | '%s')", key(), val()) }},
		{shard.PlanScatter, func() string { return "R(x | y), !S(x | y)" }},
		{shard.PlanScatter, func() string { return fmt.Sprintf("R(x | y), S(x | z), !T(x | '%s')", val()) }},
		{shard.PlanScatter, func() string { return fmt.Sprintf("R(x | '%s'), !T(x | '%s')", val(), val()) }},
		{shard.PlanScatter, func() string { return fmt.Sprintf("S(x | '%s')", val()) }},
		{shard.PlanUnion, func() string { k := key(); return fmt.Sprintf("R('%s' | x), S('%s' | x)", k, farKey(k)) }},
		{shard.PlanUnion, func() string { k := key(); return fmt.Sprintf("R('%s' | x), !T('%s' | x)", k, farKey(k)) }},
		{shard.PlanUnion, func() string { return "R(x | y), S(y | z)" }},
		{shard.PlanUnion, func() string { return fmt.Sprintf("R(x | y), !T(y | '%s')", val()) }},
	}

	byKind := map[string]int{}
	cases := 0
	for dbNo := 0; dbNo < 32; dbNo++ {
		// Blocks of one or two facts (two = inconsistent); T is empty in
		// every other database, declared on odd ones and unknown on the rest.
		var facts strings.Builder
		rels := []string{"R", "S", "T"}
		if dbNo%2 == 1 {
			rels = rels[:2]
		}
		for _, rel := range rels {
			for b := 3 + rng.Intn(4); b > 0; b-- {
				k := key()
				for s := 1 + rng.Intn(2); s > 0; s-- {
					fmt.Fprintf(&facts, "%s(%s | %s)\n", rel, k, val())
				}
			}
		}
		name := fmt.Sprintf("d%d", dbNo)
		create := DBCreateRequest{Name: name, Facts: facts.String()}
		if dbNo%4 == 1 {
			create.Declare = []RelSig{{Name: "T", Arity: 2, Key: 1}}
		}
		mustCreate(t, rts.URL, create)
		mustCreate(t, single.URL, create)
		whole := parse.MustDatabase(facts.String())

		for _, shape := range shapes {
			src := shape.make()
			q, err := parse.Query(src)
			if err != nil {
				t.Fatal(err)
			}
			if got := shard.PlanFor(q, n, nil).Kind; got != shape.kind {
				t.Fatalf("%s plans %s, the shape was built to plan %s", src, got, shape.kind)
			}
			oracle := whole.Clone()
			if err := parse.DeclareQueryRelations(oracle, q); err != nil {
				t.Fatal(err)
			}
			want := naive.IsCertain(q, oracle)

			before := hitsOf(&hits, "/v1/db/facts")
			req := CertainRequest{Query: src, Database: name, Explain: cases%2 == 0}
			routed := decodeBody[CertainResponse](t, postJSON(t, rts.URL+"/v1/certain", req))
			exports := hitsOf(&hits, "/v1/db/facts") - before
			alone := decodeBody[CertainResponse](t, postJSON(t, single.URL+"/v1/certain", req))

			if routed.Certain != want || alone.Certain != want || routed.Verdict != alone.Verdict {
				t.Fatalf("db %s, %s: router %v (%s), single store %v (%s), naive %v\n%s",
					name, src, routed.Certain, routed.Verdict, alone.Certain, alone.Verdict, want, facts.String())
			}
			if (exports > 0) != (shape.kind == shard.PlanUnion) {
				t.Fatalf("%s (%s plan) fetched %d facts exports", src, shape.kind, exports)
			}
			if req.Explain && (routed.Explain == nil || routed.Explain.ShardPlan != shape.kind || len(routed.Explain.Shards) == 0) {
				t.Fatalf("%s: explain = %+v, want plan %s with its shards", src, routed.Explain, shape.kind)
			}
			byKind[shape.kind]++
			cases++
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases", cases)
	}
	reg := rt.Inner().Registry()
	scatter := reg.Counter(`router_read_total{plan="scatter"}`).Value()
	gather := reg.Counter(`router_read_total{plan="gather"}`).Value()
	if int(scatter) != byKind[shard.PlanPinned]+byKind[shard.PlanScatter] || int(gather) != byKind[shard.PlanUnion] {
		t.Errorf("router_read_total scatter=%d gather=%d, want %v", scatter, gather, byKind)
	}
}

// TestFactsExportBlockFilter checks the key filter of GET /v1/db/facts:
// only the named blocks' facts, every signature, and a structured 400
// for a malformed block.
func TestFactsExportBlockFilter(t *testing.T) {
	_, ts := newTestServer(t, Options{Databases: map[string]*db.Database{
		"d": parse.MustDatabase("R(a | 1)\nR(a | 2)\nR(b | 1)\nS(a | 1)\nS('x y' | 1)\n"),
	}})
	get := func(blocks ...string) (*http.Response, FactsResponse) {
		resp, err := http.Get(ts.URL + "/v1/db/facts?" + url.Values{"db": {"d"}, "block": blocks}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			return resp, FactsResponse{}
		}
		return resp, decodeBody[FactsResponse](t, resp)
	}
	_, all := get()
	if strings.Count(all.Facts, "\n") != 5 {
		t.Fatalf("unfiltered export: %q", all.Facts)
	}
	_, fr := get(`["R","a"]`, `["S","x y"]`, `["S","absent"]`, `["U","a"]`)
	if fr.Facts != "R(a | 1)\nR(a | 2)\nS('x y' | 1)\n" {
		t.Errorf("filtered export: %q", fr.Facts)
	}
	if len(fr.Relations) != len(all.Relations) || fr.Version != all.Version {
		t.Errorf("filtered export changed signatures or version: %+v vs %+v", fr, all)
	}
	resp, _ := get(`R`)
	if eb := decodeBody[ErrorBody](t, resp); resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_block" {
		t.Errorf("malformed block: status %d, body %+v", resp.StatusCode, eb)
	}
}

// TestRouterReusesShardConnections: with the idle pool sized from
// MaxInFlight, 32 concurrent readers forwarding 2 000 reads to one shard
// keep to about one connection each; the default pool of 2 per host
// opens several hundred. (Not exactly one each: net/http hands a
// connection back to the pool after the reply is read, so a reader's
// next request can find the pool momentarily empty and dial a spare.)
func TestRouterReusesShardConnections(t *testing.T) {
	s := New(Options{Databases: map[string]*db.Database{"d": parse.MustDatabase("R(a | 1)\n")}})
	var opened atomic.Int64
	shardTS := httptest.NewUnstartedServer(s.Handler())
	shardTS.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	shardTS.Start()
	t.Cleanup(shardTS.Close)
	rt := NewRouter(RouterOptions{Shards: []string{shardTS.URL}, Options: Options{Engine: engine.New(engine.Options{})}})

	const readers, reads = 32, 2000
	body := `{"database":"d","query":"R('a' | x)"}`
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= reads {
				w := httptest.NewRecorder()
				rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/certain", strings.NewReader(body)))
				if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"certain":true`) {
					t.Errorf("forwarded read: status %d, body %s", w.Code, w.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := opened.Load(); n > 2*readers {
		t.Errorf("%d reads over %d readers opened %d connections to the shard", reads, readers, n)
	}
}

// TestRouterInlineFacts: a router answers an inline-facts read itself,
// from the request it decoded, with the single server's verdict and
// without asking a shard; bad fact text is 422 bad_facts through the
// router as on a single server.
func TestRouterInlineFacts(t *testing.T) {
	var hits sync.Map
	shardURLs := []string{countingShard(t, &hits).URL, countingShard(t, &hits).URL}
	rt := NewRouter(RouterOptions{Shards: shardURLs, Options: Options{Engine: engine.New(engine.Options{})}})
	single := New(Options{})
	post := func(h http.Handler, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/certain", strings.NewReader(body)))
		return w
	}
	for _, tc := range []struct{ query, facts string }{
		{"R(x | y), !S(y | x)", "R(a | b)\nR(a | c)\nS(b | a)\n"},
		{"R(x | y), !S(y | x)", "R(a | b)\nS(b | a)\n"},
		{"R('a' | y)", "R(a | 1)\nR(a | 2)\n"},
		{"P(x | y), !N('c' | y)", "P(p | 1)\nN(c | 1)\nN(c | 2)\n"},
		{"R(x | y)", "R('two words' | 'x#y')   # comment\n"},
	} {
		body := fmt.Sprintf(`{"query":%q,"facts":%q}`, tc.query, tc.facts)
		got, want := post(rt.Handler(), body), post(single.Handler(), body)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("%s on %q: router %d %s, single %d %s", tc.query, tc.facts, got.Code, got.Body, want.Code, want.Body)
		}
		if got.Body.String() != want.Body.String() {
			t.Errorf("%s on %q: router %s, single server %s", tc.query, tc.facts, got.Body, want.Body)
		}
	}
	if n := hitsOf(&hits, "/v1/certain") + hitsOf(&hits, "/v1/db/facts"); n != 0 {
		t.Errorf("inline reads reached the shards %d times", n)
	}
	for _, body := range []string{
		`{"query":"R(x | y)","facts":"R(a | b"}`,
		`{"query":"R(x | y)","facts":"R(a | b)\nR(a, b)\n"}`,
	} {
		got, want := post(rt.Handler(), body), post(single.Handler(), body)
		if got.Code != http.StatusUnprocessableEntity || !strings.Contains(got.Body.String(), `"bad_facts"`) {
			t.Errorf("bad facts %s through the router: %d %s", body, got.Code, got.Body)
		}
		if got.Body.String() != want.Body.String() {
			t.Errorf("bad facts %s: router %s, single server %s", body, got.Body, want.Body)
		}
	}
}

// TestRouterBatchNotFound: the router forwards unknown paths to its
// local half, which routes none of /v1/batch, /v1/wal/stream and
// /debug/vars, so each request is 404 and reaches no shard.
func TestRouterBatchNotFound(t *testing.T) {
	var hits sync.Map
	rt := NewRouter(RouterOptions{Shards: []string{countingShard(t, &hits).URL}, Options: Options{Engine: engine.New(engine.Options{})}})
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/batch"},
		{http.MethodGet, "/v1/wal/stream"},
		{http.MethodGet, "/debug/vars"},
	} {
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(c.method, c.path,
			strings.NewReader(`{"query":"R(x | y)","databases":["people"]}`)))
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s through the router = %d, want 404", c.method, c.path, w.Code)
		}
		if n := hitsOf(&hits, c.path); n != 0 {
			t.Errorf("%s %s reached the shard %d times", c.method, c.path, n)
		}
	}
}
