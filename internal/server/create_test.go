package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cqa/internal/gen"
	"cqa/internal/obs"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// seedText is n facts of R, one per block, ending in the one fact of
// S: a snapshot that holds S(end | 1) holds the whole seed.
func seedText(n int) string {
	var sb strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "R(k%d | v%d)\n", i, i%7)
	}
	sb.WriteString("S(end | 1)\n")
	return sb.String()
}

// serve runs one request through h in process.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A database is invisible until its seed is in it: reads and inserts
// racing a 20 000-fact create get 404 unknown_database or find the whole
// seed, and no insert takes a version ahead of it.
func TestCreateInvisibleUntilLoaded(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	create := mustJSON(t, DBCreateRequest{Name: "d", Facts: seedText(20000)})
	read := mustJSON(t, CertainRequest{Query: "R('k0' | y), S('end' | z)", Database: "d"})
	insert := mustJSON(t, DBWriteRequest{Database: "d", Facts: "T(a | 1)"})

	var done atomic.Bool
	var wg sync.WaitGroup
	var found, missed atomic.Int64
	worker := func(path string, body []byte, check func(*httptest.ResponseRecorder) error) {
		defer wg.Done()
		// Three more requests once the create has answered: those must
		// find the database.
		for after := 0; after < 3; {
			if done.Load() {
				after++
			}
			rec := serve(h, path, body)
			if rec.Code == http.StatusNotFound {
				var eb ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "unknown_database" {
					t.Errorf("%s: 404 %s, want unknown_database", path, rec.Body)
					return
				}
				missed.Add(1)
				continue
			}
			if err := check(rec); err != nil {
				t.Errorf("%s: %v", path, err)
				return
			}
			found.Add(1)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go worker("/v1/certain", read, func(rec *httptest.ResponseRecorder) error {
			var ans CertainResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); rec.Code != http.StatusOK || err != nil {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			if !ans.Certain || ans.Version < 1 {
				return fmt.Errorf("read found a partial database: %+v", ans)
			}
			return nil
		})
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go worker("/v1/db/insert", insert, func(rec *httptest.ResponseRecorder) error {
			var ack DBWriteResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			if ack.Version < 1 || ack.Applied == 1 && ack.Version != 2 {
				return fmt.Errorf("insert ahead of the seed: %+v", ack)
			}
			return nil
		})
	}
	rec := serve(h, "/v1/db/create", create)
	done.Store(true)
	wg.Wait()
	var ack DBWriteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	if ack.Version != 1 || ack.Applied != 20000 {
		t.Fatalf("create ack %+v, want version 1 and 20000 applied", ack)
	}
	info := s.stores.Get("d").Snapshot()
	if info.Version != 2 || info.DB.Size() != 20001 {
		t.Errorf("after the race: version %d with %d facts, want 2 with 20001", info.Version, info.DB.Size())
	}
	t.Logf("%d requests found the database, %d got 404", found.Load(), missed.Load())
}

// An empty create acks version 0; a seed with any relation, even one
// declared and empty, is version 1.
func TestCreateVersions(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, c := range []struct {
		req  DBCreateRequest
		want uint64
	}{
		{DBCreateRequest{Name: "empty"}, 0},
		{DBCreateRequest{Name: "declared", Declare: []RelSig{{Name: "R", Arity: 2, Key: 1}}}, 1},
		{DBCreateRequest{Name: "seeded", Facts: "R(a | 1)\nS(b | 2)\n"}, 1},
	} {
		resp := postJSON(t, ts.URL+"/v1/db/create", c.req)
		if ack := decodeBody[DBWriteResponse](t, resp); resp.StatusCode != http.StatusOK || ack.Version != c.want {
			t.Errorf("create %s: status %d, %+v; want version %d", c.req.Name, resp.StatusCode, ack, c.want)
		}
	}
	// The next write to the empty database is version 1.
	resp := postJSON(t, ts.URL+"/v1/db/insert", DBWriteRequest{Database: "empty", Facts: "R(a | 1)"})
	if ack := decodeBody[DBWriteResponse](t, resp); ack.Version != 1 {
		t.Errorf("first insert into the empty database: %+v, want version 1", ack)
	}
}

// Concurrent creates of one name: exactly one 200, the rest 409.
func TestConcurrentCreateOneWins(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := mustJSON(t, DBCreateRequest{Name: "d", Facts: seedText(2000)})
	codes := make([]int, 4)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = serve(s.Handler(), "/v1/db/create", body).Code
		}()
	}
	wg.Wait()
	ok := 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusConflict:
		default:
			t.Errorf("status %d, want 200 or 409", c)
		}
	}
	if ok != 1 {
		t.Errorf("statuses %v: %d creates won, want 1", codes, ok)
	}
}

// A create is a load: a 20 000-fact /v1/db/create allocates at most
// twice the bytes parse.Database allocates for the same text: 2.6 MB
// against 1.8 MB. Applying the parsed seed again, fact by fact, as one
// write batch on an empty store, allocated 17.0 MB (9.3×).
func TestCreateAllocations(t *testing.T) {
	text := gen.FactsText(rand.New(rand.NewSource(1)), 20000)
	bytesPer := func(runs int, fn func(i int)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	}
	const runs = 4
	parsed := bytesPer(runs, func(int) {
		if _, err := parse.Database(text); err != nil {
			t.Fatal(err)
		}
	})
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	bodies := make([][]byte, runs)
	for i := range bodies {
		bodies[i] = mustJSON(t, DBCreateRequest{Name: fmt.Sprint("d", i), Facts: text})
	}
	created := bytesPer(runs, func(i int) {
		if rec := serve(h, "/v1/db/create", bodies[i]); rec.Code != http.StatusOK {
			t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("parse.Database: %d B; /v1/db/create: %d B (%.2f×)", parsed, created, float64(created)/float64(parsed))
	if created > 2*parsed {
		t.Errorf("/v1/db/create of 20 000 facts allocates %d B, more than twice parse.Database's %d B", created, parsed)
	}
}

// A create's store work is one store-load span, with a checkpoint span
// when the store is durable, and no wal-append: nothing is logged.
func TestCreateTraceSpans(t *testing.T) {
	set, err := store.OpenSet(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.CloseAll()
	_, ts := newTestServer(t, Options{Stores: set})
	resp := postJSON(t, ts.URL+"/v1/db/create", DBCreateRequest{Name: "d", Facts: "R(a | 1)\n"})
	id := resp.Header.Get(obs.TraceHeader)
	resp.Body.Close()
	doc := getTraces(t, ts.URL, "?id="+id)
	if len(doc.Traces) != 1 {
		t.Fatalf("%d traces for id %q, want 1", len(doc.Traces), id)
	}
	spans := spanNames(doc.Traces[0])
	for _, name := range []string{"store-load", "checkpoint"} {
		if _, ok := spans[name]; !ok {
			t.Errorf("create trace lacks a %s span: %+v", name, doc.Traces[0].Spans)
		}
	}
	if _, ok := spans["wal-append"]; ok {
		t.Errorf("create trace has a wal-append span: %+v", doc.Traces[0].Spans)
	}
}
