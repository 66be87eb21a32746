package chaostest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"cqa/internal/metrics"
	"cqa/internal/obs"
	"cqa/internal/server"
)

// postTraced posts body with a caller-chosen trace ID (join semantics:
// the server always records it) and returns the structured error code
// ("" on 200) plus the echoed trace header.
func (h *harness) postTraced(url, traceID string, body, out any) (code, echoed string) {
	h.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		h.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := h.client.Do(req)
	if err != nil {
		h.t.Fatalf("traced post: %v", err)
	}
	defer resp.Body.Close()
	echoed = resp.Header.Get(obs.TraceHeader)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb server.ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error.Code != "" {
			return eb.Error.Code, echoed
		}
		return fmt.Sprintf("status %d", resp.StatusCode), echoed
	}
	if err := json.Unmarshal(raw, out); err != nil {
		h.t.Fatal(err)
	}
	return "", echoed
}

// trace fetches one trace by ID from a server's /debug/traces.
func (h *harness) trace(base, id string) *obs.TraceView {
	h.t.Helper()
	resp, err := h.client.Get(base + "/debug/traces?id=" + id)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		h.t.Fatal(err)
	}
	if len(doc.Traces) == 0 {
		return nil
	}
	return &doc.Traces[0]
}

// scrape parses a server's /metrics Prometheus exposition.
func (h *harness) scrape(base string) *metrics.PromExposition {
	h.t.Helper()
	resp, err := h.client.Get(base + "/metrics")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := metrics.LintPrometheus(string(raw)); err != nil {
		h.t.Fatalf("%s/metrics does not lint: %v", base, err)
	}
	exp, err := metrics.ParsePrometheus(string(raw))
	if err != nil {
		h.t.Fatal(err)
	}
	return exp
}

func spanAttr(sp obs.SpanView, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestObsKillCoherence asserts the observability plane tells the truth
// under fault injection: a read that dies against a SIGKILLed shard
// leaves a trace whose rpc span names the dead shard and carries the
// error, the router's partial_result_total counter moves, and once the
// shard recovers the same read answers exactly again.
func TestObsKillCoherence(t *testing.T) {
	dir := t.TempDir()
	tp, err := Boot(BootOptions{Bin: cqadBin, Dir: dir, Shards: 4, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	h := newHarness(t, tp, 11)
	h.writeBatch(6)

	const victim = 1
	owned, _ := h.keyOwnedBy(victim)
	query := fmt.Sprintf("R('k%d' | 'v0')", owned)

	// Healthy baseline: the pinned read's trace shows a clean rpc to the
	// owner shard, and the shard records spans under the same ID.
	var out server.CertainResponse
	code, echoed := h.postTraced(tp.Router.URL+"/v1/certain", "obs-ok", server.CertainRequest{
		Query: query, Database: chaosDB,
	}, &out)
	if code != "" {
		t.Fatalf("healthy traced read failed: %s", code)
	}
	if echoed != "obs-ok" {
		t.Fatalf("response header names trace %q, want obs-ok", echoed)
	}
	tr := h.trace(tp.Router.URL, "obs-ok")
	if tr == nil {
		t.Fatal("router has no trace obs-ok")
	}
	foundOK := false
	for _, sp := range tr.Spans {
		if sp.Name == "rpc" && spanAttr(sp, "shard") == fmt.Sprint(victim) && sp.Error == "" {
			foundOK = true
		}
	}
	if !foundOK {
		t.Fatalf("healthy trace has no clean rpc span for shard %d: %+v", victim, tr.Spans)
	}
	if str := h.trace(tp.Shards[victim].URL, "obs-ok"); str == nil {
		t.Fatalf("shard %d did not join trace obs-ok", victim)
	}

	before, _ := h.scrape(tp.Router.URL).Value("partial_result_total")

	if err := tp.Shards[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	code, echoed = h.postTraced(tp.Router.URL+"/v1/certain", "obs-kill", server.CertainRequest{
		Query: query, Database: chaosDB,
	}, &out)
	if code != "partial_result" {
		t.Fatalf("read against dead shard: got %q, want partial_result", code)
	}
	if echoed != "obs-kill" {
		t.Fatalf("degraded response names trace %q, want obs-kill", echoed)
	}

	tr = h.trace(tp.Router.URL, "obs-kill")
	if tr == nil {
		t.Fatal("router has no trace obs-kill")
	}
	foundErr := false
	for _, sp := range tr.Spans {
		if sp.Name == "rpc" && spanAttr(sp, "shard") == fmt.Sprint(victim) && sp.Error != "" {
			foundErr = true
		}
	}
	if !foundErr {
		t.Fatalf("degraded trace has no failed rpc span for shard %d: %+v", victim, tr.Spans)
	}

	after, ok := h.scrape(tp.Router.URL).Value("partial_result_total")
	if !ok || after < before+1 {
		t.Fatalf("partial_result_total = %g (was %g), want an increment", after, before)
	}
	if n, ok := h.scrape(tp.Router.URL).Value("shard_rpc_total",
		"shard", fmt.Sprint(victim), "outcome", "error"); !ok || n < 1 {
		t.Fatalf("shard_rpc_total{shard=%d,outcome=error} = %g, want ≥ 1", victim, n)
	}

	if err := tp.Shards[victim].Start(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Shards[victim].WaitHealthy(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	h.writeBatch(4)

	// The recovered shard answers the same pinned read exactly again.
	h.mustAnswer(query)
}
