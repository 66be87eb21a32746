package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"cqa/internal/engine"
	"cqa/internal/metrics"
)

// TestPlannerServedEndToEnd is the acceptance path for the planner
// subsystem: a cyclic two-atom mutual-negation query — previously
// naive repair enumeration — is answered through the full HTTP stack
// by the matching decider, visible in the explain payload, in
// /v1/classify, and in the eval_total{strategy="matching"} counter.
func TestPlannerServedEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// No S-fact mirrors any R-fact, so no repair falsifies the query.
	req := CertainRequest{
		Query:   "R(x | y), !S(y | x)",
		Facts:   "R(a | 1)\nR(a | 2)\nR(b | 1)\nS(z | z)",
		Explain: true,
	}
	resp := postJSON(t, ts.URL+"/v1/certain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/certain status = %d", resp.StatusCode)
	}
	cr := decodeBody[CertainResponse](t, resp)
	if !cr.Certain {
		t.Error("mutual-negation query with no mutual facts must be certain")
	}
	if cr.Explain == nil {
		t.Fatal("explain requested but absent")
	}
	if cr.Explain.Strategy != engine.StrategyMatching {
		t.Errorf("explain strategy = %q, want %q", cr.Explain.Strategy, engine.StrategyMatching)
	}
	dec := cr.Explain.PlanDecision
	if dec == nil {
		t.Fatal("explain lacks planDecision for a planner-served query")
	}
	if dec.Strategy != engine.StrategyMatching {
		t.Errorf("planDecision strategy = %q", dec.Strategy)
	}
	if dec.Reason == "" {
		t.Error("planDecision reason is empty")
	}
	if len(dec.Stats) != 2 || dec.Stats[0].Rel != "R" || dec.Stats[0].Facts != 3 {
		t.Errorf("planDecision stats = %+v", dec.Stats)
	}

	// Classification reports the planned strategy for the non-FO query.
	cresp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Query: req.Query})
	cl := decodeBody[ClassifyResponse](t, cresp)
	if cl.Verdict == "fo" {
		t.Fatalf("verdict = %q, want non-FO", cl.Verdict)
	}
	if cl.PlannedStrategy != engine.StrategyMatching {
		t.Errorf("plannedStrategy = %q, want %q", cl.PlannedStrategy, engine.StrategyMatching)
	}
	if cl.PlannerReason == "" {
		t.Error("plannerReason is empty for a planner-served query")
	}

	// The evaluation shows up under the new strategy label.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	exp, err := metrics.ParsePrometheus(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("eval_total", "strategy", engine.StrategyMatching, "cache", "bypass"); !ok || v != 1 {
		t.Errorf("eval_total{strategy=matching,cache=bypass} = %v (present=%v), want 1", v, ok)
	}
}

// TestPlannerReachabilityOverNamedDB serves the q2 shape against a
// named database so the decision flows through the store's snapshot.
func TestPlannerReachabilityOverNamedDB(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, DBCreateRequest{Name: "graph", Facts: "E(a, b)\nE(a, c)\nB(a | b)\nB(a | c)\n"})

	req := CertainRequest{
		Query:    "E(x, y), !B(x | y), !C(y | x)",
		Database: "graph",
		Explain:  true,
	}
	cr := decodeBody[CertainResponse](t, postJSON(t, ts.URL+"/v1/certain", req))
	// Block B(a|·) cannot cover both edges: certain.
	if !cr.Certain {
		t.Error("overloaded block instance must be certain")
	}
	if cr.Explain == nil || cr.Explain.Strategy != engine.StrategyReachability {
		t.Fatalf("explain = %+v, want strategy %q", cr.Explain, engine.StrategyReachability)
	}
	if cr.Explain.PlanDecision == nil {
		t.Fatal("named-db explain lacks planDecision")
	}
	if got := cr.Explain.PlanDecision.Strategy; got != engine.StrategyReachability {
		t.Errorf("planDecision strategy = %q", got)
	}
	if !strings.Contains(cr.Explain.PlanDecision.Reason, "union-find") &&
		!strings.Contains(cr.Explain.PlanDecision.Reason, "orientation") {
		t.Errorf("planDecision reason = %q", cr.Explain.PlanDecision.Reason)
	}
}
