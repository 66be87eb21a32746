package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/shard"
)

// A cqad's GET /v1/shards reports the primary role and one store per
// database. A create declaring two relations is one write: it acks
// version 1, and the store reports that version.
func TestShardsReportsOneStorePerDatabase(t *testing.T) {
	_, ts := newTestServer(t, Options{Databases: map[string]*db.Database{}})
	resp := postJSON(t, ts.URL+"/v1/db/create", DBCreateRequest{Name: "d",
		Facts: "R(k1 | a)\nR(k2 | b)\nR(k3 | c)\n", Declare: []RelSig{{Name: "S", Arity: 2, Key: 1}}})
	if ack := decodeBody[DBWriteResponse](t, resp); resp.StatusCode != http.StatusOK || ack.Version != 1 {
		t.Fatalf("create: status %d, ack %+v, want version 1", resp.StatusCode, ack)
	}
	sresp, err := http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	topo := decodeBody[ShardsResponse](t, sresp)
	if topo.Role != "primary" || len(topo.Databases) != 1 || topo.Databases[0].Shards != 1 ||
		len(topo.Databases[0].PerShard) != 1 || topo.Databases[0].PerShard[0].Version != 1 ||
		topo.Databases[0].PerShard[0].Facts != 3 {
		t.Fatalf("primary topology: %+v", topo)
	}
}

// The router tier over two real shard servers: writes partition by
// block owner, ground-key reads pin one shard, joins merge facts, and a
// dead shard yields explicit partial_result degradation for queries
// that touch it — while queries pinned to the live shard keep working.
func TestRouterScatterGatherAndDegradation(t *testing.T) {
	const n = 2
	shardURLs := make([]string, n)
	shardSrvs := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		_, ts := newTestServer(t, Options{Databases: map[string]*db.Database{}})
		shardSrvs[i] = ts
		shardURLs[i] = ts.URL
	}
	rt := NewRouter(RouterOptions{Shards: shardURLs, Options: Options{Engine: engine.New(engine.Options{})}})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	// Seed enough blocks that both shards own some, and record which
	// shard owns which key.
	var facts string
	keysBy := map[int][]string{}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%d", i)
		keysBy[shard.Owner("R", []string{k}, n)] = append(keysBy[shard.Owner("R", []string{k}, n)], k)
		facts += fmt.Sprintf("R(%s | v%d)\n", k, i)
	}
	if len(keysBy[0]) == 0 || len(keysBy[1]) == 0 {
		t.Fatalf("test keys all landed on one shard: %v", keysBy)
	}
	facts += "S(w | k0)\n"
	mustCreate(t, rts.URL, DBCreateRequest{Name: "d", Facts: facts})

	// The partition actually split: neither shard holds all 17 facts.
	for i, ts := range shardSrvs {
		resp, err := http.Get(ts.URL + "/v1/db/info")
		if err != nil {
			t.Fatal(err)
		}
		info := decodeBody[DBInfoResponse](t, resp)
		if len(info.Databases) != 1 || info.Databases[0].Facts == 0 || info.Databases[0].Facts >= 17 {
			t.Fatalf("shard %d holds %+v, want a strict slice", i, info.Databases)
		}
	}

	ask := func(query string) (*CertainResponse, *ErrorBody, int) {
		resp := postJSON(t, rts.URL+"/v1/certain", CertainRequest{Query: query, Database: "d"})
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ans := decodeBody[CertainResponse](t, resp)
			return &ans, nil, resp.StatusCode
		}
		eb := decodeBody[ErrorBody](t, resp)
		return nil, &eb, resp.StatusCode
	}

	// Variable-key single atom: scatter across both shards, certain.
	if ans, _, _ := ask("R(x | y)"); ans == nil || !ans.Certain {
		t.Fatalf("scatter read: %+v", ans)
	}
	// Ground-key single atom: pinned to its owner shard.
	if ans, _, _ := ask(fmt.Sprintf("R('%s' | y)", keysBy[0][0])); ans == nil || !ans.Certain {
		t.Fatalf("pinned read: %+v", ans)
	}
	// Join across shards: facts-merge path.
	if ans, _, _ := ask("S(x | y), R(y | z)"); ans == nil || !ans.Certain {
		t.Fatalf("join read: %+v", ans)
	}
	// Writes partition: the ack sums shard versions and the fact lands.
	resp := postJSON(t, rts.URL+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "R(k1 | extra)"})
	wr := decodeBody[DBWriteResponse](t, resp)
	if wr.Applied != 1 {
		t.Fatalf("router write: %+v", wr)
	}
	if ans, _, _ := ask("R('k1' | 'extra')"); ans == nil || ans.Certain {
		t.Fatalf("k1's block is now inconsistent; want not certain, got %+v", ans)
	}

	// Kill shard 1. Queries pinned to shard 0 keep answering; queries
	// touching shard 1 degrade to explicit 503 partial_result.
	shardSrvs[1].Close()
	if ans, _, _ := ask(fmt.Sprintf("R('%s' | y)", keysBy[0][0])); ans == nil || !ans.Certain {
		t.Fatalf("pinned read after kill: %+v", ans)
	}
	_, eb, status := ask(fmt.Sprintf("R('%s' | y)", keysBy[1][0]))
	if status != http.StatusServiceUnavailable || eb == nil || eb.Error.Code != "partial_result" {
		t.Fatalf("dead-shard read: status %d, body %+v", status, eb)
	}
	// A scatter that a live shard can prove true short-circuits and
	// still answers 200 despite the dead shard.
	if ans, _, _ := ask("R(x | y)"); ans == nil || !ans.Certain {
		t.Fatalf("scatter read with live-provable answer: %+v", ans)
	}
	// A scatter the live shards answer false needs the dead shard's
	// verdict, so it degrades.
	_, eb, status = ask("R(x | 'no_such_value')")
	if status != http.StatusServiceUnavailable || eb == nil || eb.Error.Code != "partial_result" {
		t.Fatalf("scatter read needing dead shard: status %d, body %+v", status, eb)
	}
	// So does the facts-merge join, which must fetch every shard's slice.
	_, eb, status = ask("S(x | y), R(y | z)")
	if status != http.StatusServiceUnavailable || eb == nil || eb.Error.Code != "partial_result" {
		t.Fatalf("join read with dead shard: status %d, body %+v", status, eb)
	}

	// /v1/shards reports the dead shard.
	hresp, err := http.Get(rts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	topo := decodeBody[ShardsResponse](t, hresp)
	if topo.Role != "router" || len(topo.Shards) != 2 || !topo.Shards[0].Alive || topo.Shards[1].Alive {
		t.Fatalf("router health: %+v", topo)
	}
}
