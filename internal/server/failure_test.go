package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cqa/internal/parse"
	"cqa/internal/schema"
)

func mustQuery(t *testing.T, src string) schema.Query {
	t.Helper()
	q, err := parse.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 256})
	facts := strings.Repeat("R(a | 1)\n", 200)
	for path, big := range map[string]any{
		"/v1/certain":   CertainRequest{Query: "R(x | y)", Facts: facts},
		"/v1/db/create": DBCreateRequest{Name: "big", Facts: facts},
		"/v1/db/insert": DBWriteRequest{Database: "people", Facts: facts},
	} {
		resp := postJSON(t, ts.URL+path, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", path, resp.StatusCode)
		}
		out := decodeBody[ErrorBody](t, resp)
		if out.Error.Code != "body_too_large" || out.Error.Status != 413 {
			t.Errorf("%s: error body = %+v", path, out)
		}
	}
}

// A body is read into one buffer of its declared length when that lies
// within MaxBodyBytes, and by the bounded fallback otherwise: a body of
// the bound's exact size is served, one byte more is 413 whether the
// length is declared or unknown (chunked).
func TestBodyLengths(t *testing.T) {
	const limit = 256
	_, ts := newTestServer(t, Options{MaxBodyBytes: limit})
	// JSON skips leading white space, so padding sizes a valid request.
	body := func(n int) string {
		req := `{"query":"R(x | y)","database":"people"}`
		return strings.Repeat(" ", n-len(req)) + req
	}
	for _, tc := range []struct {
		name   string
		size   int
		length int64 // declared Content-Length; -1 is unknown
		want   int
	}{
		{"short", 64, 64, http.StatusOK},
		{"exact", limit, limit, http.StatusOK},
		{"over-limit", limit + 1, limit + 1, http.StatusRequestEntityTooLarge},
		{"unknown", limit, -1, http.StatusOK},
		{"unknown over-limit", limit + 1, -1, http.StatusRequestEntityTooLarge},
	} {
		req, err := http.NewRequest("POST", ts.URL+"/v1/certain", strings.NewReader(body(tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = tc.length
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, resp.StatusCode, tc.want, out)
		}
	}
}

func TestMalformedJSON400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"not json":      `{"query": `,
		"unknown field": `{"query": "R(x | y)", "boost": true}`,
		"trailing data": `{"query": "R(x | y)", "facts": ""}{"again": 1}`,
		"wrong type":    `{"query": 42}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/certain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		out := decodeBody[ErrorBody](t, resp)
		if out.Error.Code != "bad_json" || out.Error.Message == "" || out.Error.Status != 400 {
			t.Errorf("%s: error body = %+v", name, out)
		}
	}
	// Shape errors: both or neither of facts/database.
	for _, body := range []string{
		`{"query": "R(x | y)"}`,
		`{"query": "R(x | y)", "facts": "R(a | 1)", "database": "people"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/certain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestBadQueryAndFacts422(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x |", Facts: "R(a | 1)"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad query: status = %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Facts: "R(a | 1\n"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad facts: status = %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
	// Self-join breaks the sjfBCQ¬ contract → query-level 422.
	resp = postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: "R(x | y), R(y | x)"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("self-join: status = %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestUnknownDatabase404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{Query: "R(x | y)", Database: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if out := decodeBody[ErrorBody](t, resp); out.Error.Code != "unknown_database" {
		t.Errorf("error body = %+v", out)
	}
}

// slowRequest starts a /v1/certain POST whose body is held open by a
// pipe, so the handler sits inside the admitted section (reading the
// body) until release is called.
func slowRequest(t *testing.T, url string) (release func(), done <-chan *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", url+"/v1/certain", pr)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("slow request failed: %v", err)
			close(ch)
			return
		}
		ch <- resp
	}()
	// Send the opening bytes so the server has surely entered the handler.
	if _, err := pw.Write([]byte(`{"query": "R(x | y)", `)); err != nil {
		t.Fatal(err)
	}
	return func() {
		pw.Write([]byte(`"facts": "R(a | 1)\nR(a | 2)"}`))
		pw.Close()
	}, ch
}

func TestAdmissionControl429(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInFlight: 1})

	release, done := slowRequest(t, ts.URL)
	// The slot is held; the next request must be shed.
	deadline := time.Now().Add(5 * time.Second)
	var resp *http.Response
	for {
		resp = postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: "R(x | y)"})
		if resp.StatusCode == http.StatusTooManyRequests || time.Now().After(deadline) {
			break
		}
		// The slow request may not have been admitted yet; retry.
		resp.Body.Close()
		time.Sleep(time.Millisecond)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if out := decodeBody[ErrorBody](t, resp); out.Error.Code != "overloaded" {
		t.Errorf("error body = %+v", out)
	}
	// Shedding is deterministic while the slot is held, and counted.
	shed := uint64(1)
	for ; shed < 10; shed++ {
		resp = postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: "R(x | y)"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("held server answered %d, want 429", resp.StatusCode)
		}
	}
	if n := s.Registry().Counter("rejected_total").Value(); n < shed {
		t.Errorf("clients saw %d rejections, rejected_total = %d", shed, n)
	}

	// Releasing the slot restores service; the held request was answered
	// correctly, not merely completed.
	release()
	slow := <-done
	if slow.StatusCode != http.StatusOK {
		t.Fatalf("slow request status = %d, want 200", slow.StatusCode)
	}
	if out := decodeBody[CertainResponse](t, slow); !out.Certain {
		t.Errorf("held request answer = %+v, want certain", out)
	}
	resp = postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: "R(x | y)"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestPerRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{RequestTimeout: 5 * time.Millisecond})
	// A cyclic query outside the planner's decider shapes is decided by
	// search over block choices. Pigeonhole facts make that search slow:
	// nine P-blocks each choose one of eight holes h_j, and each hole's
	// N-block admits one pigeon, so no repair falsifies the query, and
	// DPLL takes exponential time to find that out (about 0.5 s; 8 is the
	// smallest hole count past 100 ms, and the evaluation keeps running
	// after the response, so no more).
	var facts strings.Builder
	for i := 0; i < 9; i++ {
		for j := 0; j < 8; j++ {
			fmt.Fprintf(&facts, "P(p%d | h%d)\nN(h%d | p%d)\n", i, j, j, i)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/certain", CertainRequest{
		Query: "P(u | v), !N(v | u), !M(u | v)",
		Facts: facts.String(),
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if out := decodeBody[ErrorBody](t, resp); out.Error.Code != "timeout" {
		t.Errorf("error body = %+v", out)
	}
}

// TestDrainSurvivesShutdown simulates the SIGTERM path: an in-flight
// request must complete with 200 while http.Server.Shutdown drains, and
// /readyz must flip to 503 as soon as draining starts.
func TestDrainSurvivesShutdown(t *testing.T) {
	s := New(Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Wait for the listener to actually serve.
	waitUntil(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == 200
	})

	release, done := slowRequest(t, base)

	// SIGTERM arrives: drain readiness, then shut down gracefully.
	s.Drain()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", resp.StatusCode)
	}

	var inflightCompleted atomic.Bool
	go func() {
		// Release the in-flight request once Shutdown is surely waiting.
		time.Sleep(20 * time.Millisecond)
		release()
		r := <-done
		if r == nil {
			return
		}
		if r.StatusCode == http.StatusOK {
			var out CertainResponse
			if json.NewDecoder(r.Body).Decode(&out) == nil && out.Certain {
				inflightCompleted.Store(true)
			}
		}
		r.Body.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown only returns once in-flight requests finished; the slow
	// request must have been answered, not cut off.
	waitUntil(t, func() bool { return inflightCompleted.Load() })
	s.Engine().Close()
	if _, err := s.Engine().Certain(mustQuery(t, "R(x | y)"), nil); err == nil {
		t.Error("engine should reject work after Close")
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
