package server

import (
	"net/http"
	"path/filepath"
	"reflect"
	"testing"

	"cqa/internal/shard"
	"cqa/internal/store"
)

func TestDBCreateInsertDeleteInfo(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp := postJSON(t, ts.URL+"/v1/db/create", DBCreateRequest{Name: "orders", Facts: "O(a | 1)\nO(b | 2)\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	cr := decodeBody[DBWriteResponse](t, resp)
	if cr.Database != "orders" || cr.Applied != 2 {
		t.Fatalf("create response: %+v", cr)
	}

	// Duplicate create conflicts; bad names are rejected.
	resp = postJSON(t, ts.URL+"/v1/db/create", DBCreateRequest{Name: "orders"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/db/create", DBCreateRequest{Name: "../evil"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad name status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// An insert bumps the version and reports what it touched; the no-op
	// part of the batch is filtered.
	resp = postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "orders", Facts: "O(a | 1)\nO(c | 3)\n"})
	wr := decodeBody[DBWriteResponse](t, resp)
	if wr.Applied != 1 || len(wr.Touched) != 1 || wr.Touched[0] != "O" {
		t.Fatalf("insert response: %+v", wr)
	}

	// The new database answers /v1/certain with version and cache state.
	resp = postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "O(x | y)", Database: "orders"})
	ans := decodeBody[CertainResponse](t, resp)
	if !ans.Certain || ans.Version != wr.Version || ans.Cached == nil || *ans.Cached {
		t.Fatalf("first certain: %+v", ans)
	}

	resp = postJSON(t, ts.URL+"/v1/db/delete", DBWriteRequest{Database: "orders", Facts: "O(a | 1)\nO(b | 2)\nO(c | 3)\n"})
	wr = decodeBody[DBWriteResponse](t, resp)
	if wr.Applied != 3 {
		t.Fatalf("delete response: %+v", wr)
	}
	resp = postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "O(x | y)", Database: "orders"})
	ans = decodeBody[CertainResponse](t, resp)
	if ans.Certain {
		t.Fatalf("empty O should not be certain: %+v", ans)
	}

	// Writes to a database that does not exist are 404.
	resp = postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "ghost", Facts: "O(a | 1)"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown db insert status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Info lists both the preloaded and the created database.
	resp, err := http.Get(ts.URL + "/v1/db/info")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody[DBInfoResponse](t, resp)
	byName := make(map[string]DBInfo)
	for _, d := range info.Databases {
		byName[d.Name] = d
	}
	if len(byName) != 2 {
		t.Fatalf("info databases: %+v", info.Databases)
	}
	if p := byName["people"]; p.Facts != 2 || p.Durable {
		t.Errorf("people info: %+v", p)
	}
	if o := byName["orders"]; o.Facts != 0 || o.Version != wr.Version || o.Durable {
		t.Errorf("orders info: %+v", o)
	}
}

// The acceptance criterion end to end over HTTP: a write to a relation
// the query does not mention keeps the answer cached; a write to a
// mentioned relation invalidates it and the recomputed answer reflects
// the new facts.
func TestResultCacheInvalidationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, DBCreateRequest{Name: "d", Facts: "R(a | 1)\nS(z | z)\nT(z | z)\n"})

	askCached := func(wantCertain bool) bool {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y), !S(y | x)", Database: "d"})
		ans := decodeBody[CertainResponse](t, resp)
		if ans.Certain != wantCertain {
			t.Fatalf("certain = %v, want %v (version %d)", ans.Certain, wantCertain, ans.Version)
		}
		if ans.Cached == nil {
			t.Fatal("named-db response lacks cached field")
		}
		return *ans.Cached
	}

	if askCached(true) {
		t.Fatal("first ask must be a miss")
	}
	if !askCached(true) {
		t.Fatal("repeat ask must be a hit")
	}
	// T is not mentioned by the query: the version moves, the cache holds.
	postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "T(new | fact)"}).Body.Close()
	if !askCached(true) {
		t.Fatal("write to unmentioned relation must keep the cache hit")
	}
	// S(1|a) blocks the only witness R(a|1): the answer itself flips.
	postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "S(1 | a)"}).Body.Close()
	if askCached(false) {
		t.Fatal("write to mentioned relation must be a miss")
	}
	if !askCached(false) {
		t.Fatal("the recomputed answer must be cached again")
	}
}

// The carry rule end to end over HTTP, and its instruments: a write to
// a relation a co-keyed query mentions leaves the answer cached — with
// the verdict of the new version — and is counted as carried on
// /v1/stats and /metrics, not as an invalidation.
func TestResultCacheCarryOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, DBCreateRequest{Name: "d", Facts: "R(a | 1)\nR(b | 2)\nS(b | 2)\n"})
	ask := func(wantCertain, wantCached bool) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y), !S(x | y)", Database: "d"})
		ans := decodeBody[CertainResponse](t, resp)
		if ans.Certain != wantCertain || ans.Cached == nil || *ans.Cached != wantCached {
			t.Fatalf("certain = %v (want %v), cached = %v (want %v), version %d", ans.Certain, wantCertain, ans.Cached, wantCached, ans.Version)
		}
	}
	ask(true, false)
	postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "R(c | 3)"}).Body.Close()
	ask(true, true)
	// Block a, one of two witnesses: the open case, a real invalidation.
	postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "S(a | 1)"}).Body.Close()
	ask(true, false)
	// Block c, the last one: open again. Then unblock it: b alone decides.
	postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "S(c | 3)"}).Body.Close()
	ask(false, false)
	postJSON(t, ts.URL+"/v1/db/delete", DBWriteRequest{Database: "d", Facts: "S(c | 3)"}).Body.Close()
	ask(true, true)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[StatsResponse](t, resp)
	if stats.Engine.ResultCarried != 2 || stats.Engine.ResultInvalidations != 2 {
		t.Errorf("/v1/stats: carried %d, invalidations %d; want 2 and 2", stats.Engine.ResultCarried, stats.Engine.ResultInvalidations)
	}
	exp := scrapeMetrics(t, ts.URL)
	if v, ok := exp.Value("result_cache_carried_total"); !ok || v != 2 {
		t.Errorf("result_cache_carried_total = %v (present=%v), want 2", v, ok)
	}
	if v, ok := exp.Value("result_cache_invalidations_total", "rel", "S"); !ok || v != 2 {
		t.Errorf(`result_cache_invalidations_total{rel="S"} = %v (present=%v), want 2: only real drops count`, v, ok)
	}
}

// wal_records counts the records durable stores append to their WAL: a
// create's seed is a checkpoint, not records, and a memory-only store
// writes no WAL at all.
func TestWALRecordsCountsDurableWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  store.Options
		want float64
	}{
		{"memory", store.Options{}, 0},
		{"durable", store.Options{Dir: t.TempDir(), Sync: false}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set, err := store.OpenSet(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer set.CloseAll()
			_, ts := newTestServer(t, Options{Stores: set})
			mustCreate(t, ts.URL, DBCreateRequest{Name: "k", Facts: "R(a | 1)\n"})
			resp := postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "k", Facts: "R(b | 2)\nR(c | 3)\n"})
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("insert: status %d", resp.StatusCode)
			}
			if v, ok := scrapeMetrics(t, ts.URL).Value("wal_records"); !ok || v != tc.want {
				t.Errorf("wal_records = %v (present=%v), want %v", v, ok, tc.want)
			}
		})
	}
}

// A server handed a durable store set persists HTTP writes across a
// restart of the whole stack.
func TestDurableStoresSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	set, err := store.OpenSet(store.Options{Dir: dir, Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Stores: set})
	mustCreate(t, ts.URL, DBCreateRequest{Name: "k", Facts: "R(a | 1)"})
	// A cached answer that the write below carries or drops.
	postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "k"}).Body.Close()
	postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "k", Facts: "R(b | 2)"}).Body.Close()

	// The ops surfaces reflect the store activity.
	resp, err := http.Get(ts.URL + "/v1/db/info")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decodeBody[DBInfoResponse](t, resp).Databases {
		if d.Name == "k" && (!d.Durable || d.WALRecords == 0) {
			t.Errorf("/v1/db/info: k should be durable with WAL records: %+v", d)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[StatsResponse](t, resp)
	if wal, _ := stats.Server["wal_records"].(float64); wal <= 0 {
		t.Errorf("/v1/stats wal_records = %v, want > 0", wal)
	}
	if e := stats.Engine; e.ResultMisses != 1 || e.ResultCarried+e.ResultInvalidations != 1 {
		t.Errorf("/v1/stats engine: %d misses, %d carried, %d invalidations; want 1 miss and 1 carried or invalidated",
			e.ResultMisses, e.ResultCarried, e.ResultInvalidations)
	}
	exp := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"wal_records", "snapshot_version"} {
		if v, ok := exp.Value(name); !ok || v == 0 {
			t.Errorf("/metrics %s = %v (present=%v), want > 0", name, v, ok)
		}
	}
	ts.Close()
	if err := set.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "k.*")); len(m) == 0 {
		t.Fatal("no k.wal/k.snap files on disk after close")
	}

	set2, err := store.OpenSet(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.CloseAll()
	_, ts2 := newTestServer(t, Options{Stores: set2})
	resp = postJSON(t, ts2.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "k"})
	ans := decodeBody[CertainResponse](t, resp)
	if !ans.Certain {
		t.Fatal("facts written before restart must survive")
	}
	resp, err = http.Get(ts2.URL + "/v1/db/info")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody[DBInfoResponse](t, resp)
	found := false
	for _, d := range info.Databases {
		if d.Name == "k" {
			found = true
			if !d.Durable || d.Facts != 2 {
				t.Errorf("recovered info: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("database k not listed after restart")
	}
}

// A create whose declare list is invalid is refused whole: no database
// is left behind, so a valid retry under the same name succeeds.
func TestRejectedCreateLeavesNothing(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/db/create", DBCreateRequest{Name: "d", Facts: "R(a | 1)",
		Declare: []RelSig{{Name: "S", Arity: 0, Key: 0}}})
	if body := decodeBody[ErrorBody](t, resp); resp.StatusCode != http.StatusUnprocessableEntity || body.Error.Code != "bad_declare" {
		t.Fatalf("invalid declare: status %d, %+v; want 422 bad_declare", resp.StatusCode, body.Error)
	}
	resp = postJSON(t, ts.URL+"/v1/db/create", DBCreateRequest{Name: "d", Facts: "R(a | 1)"})
	if ack := decodeBody[DBWriteResponse](t, resp); resp.StatusCode != http.StatusOK || ack.Version != 1 {
		t.Fatalf("valid retry: status %d, %+v; want 200 at version 1", resp.StatusCode, ack)
	}
}

// An insert whose declare list holds a valid and an invalid signature
// is refused whole: the valid relation is not declared and the version
// does not move.
func TestRejectedInsertChangesNothing(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, DBCreateRequest{Name: "d", Facts: "R(a | 1)"})
	postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "R(b | 2)"}).Body.Close()
	info := func() DBInfo {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/db/info")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decodeBody[DBInfoResponse](t, resp).Databases {
			if d.Name == "d" {
				return d
			}
		}
		t.Fatal("database d not listed")
		return DBInfo{}
	}
	before := info()
	resp := postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "R(c | 3)",
		Declare: []RelSig{{Name: "S", Arity: 2, Key: 1}, {Name: "T", Arity: 0, Key: 0}}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid declare: status %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
	// A declaration that clashes with the stored relation is refused too.
	resp = postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "S(c | 3)",
		Declare: []RelSig{{Name: "S", Arity: 2, Key: 1}, {Name: "R", Arity: 3, Key: 1}}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("clashing declare: status %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
	if after := info(); after.Version != before.Version || after.Facts != before.Facts || len(after.Relations) != 1 {
		t.Fatalf("rejected inserts changed the database: %+v → %+v", before, after)
	}
}

// A cqad keeps one store per database: the explain of a named read
// reports the single-shard plan over shard 0, and an inline read none.
func TestShardPlanSingleShard(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, DBCreateRequest{Name: "d", Facts: "R(a | 1)"})
	for _, req := range []CertainRequest{
		{Query: "R(x | y), !S(y | x)", Database: "d", Explain: true},
		{Query: "R(x | y), !S(y | x)", Facts: "R(a | 1)", Explain: true},
	} {
		ans := decodeBody[CertainResponse](t, postJSON(t, ts.URL+"/v1/certain", req))
		want, shards := shard.PlanSingle, []int{0}
		if req.Database == "" {
			want, shards = "", nil
		}
		if ans.Explain == nil || ans.Explain.ShardPlan != want || !reflect.DeepEqual(ans.Explain.Shards, shards) {
			t.Errorf("db %q: explain %+v, want plan %q over %v", req.Database, ans.Explain, want, shards)
		}
	}
}

func mustCreate(t *testing.T, base string, req DBCreateRequest) {
	t.Helper()
	resp := postJSON(t, base+"/v1/db/create", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("creating %s: status %d", req.Name, resp.StatusCode)
	}
}
