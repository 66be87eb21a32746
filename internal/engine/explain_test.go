package engine

import (
	"strings"
	"testing"

	"cqa/internal/fo"
)

func TestStrategyMirrorsCertainWith(t *testing.T) {
	queries := map[string]string{
		"fo": "P(x | y), !N('c' | y)",
		// FO, but x occurs twice in one atom, so no quantifier lowers.
		"fo-scalar": "R(x, x), !S(x | x)",
		// Cyclic (not-FO, Sec 5.1) but negation-free, so neither planner
		// pattern applies: search over block choices.
		"cyclic": "R(x | y), S(y | x)",
		// The paper's q1 and q2 shapes: planner graph deciders.
		"matching":     "R(x | y), !S(y | x)",
		"reachability": "E(x, y), !B(x | y), !C(y | x)",
	}

	cases := []struct {
		name  string
		query string
		want  string
	}{
		{"bitmap default", "fo", StrategyCompiledBitmap},
		{"no lowered quantifier", "fo-scalar", StrategyCompiled},
		{"search", "cyclic", StrategySearch},
		{"matching", "matching", StrategyMatching},
		{"reachability", "reachability", StrategyReachability},
	}
	e := New(Options{})
	for _, c := range cases {
		q := mustQuery(t, queries[c.query])
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := Strategy(p); got != c.want {
			t.Errorf("%s: Strategy = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPrepareCachedReportsOutcome(t *testing.T) {
	e := New(Options{})
	q := mustQuery(t, "R(x | y), !S(x | y)")
	r1, err := e.Plan(q)
	if err != nil || r1.Hit {
		t.Fatalf("first Plan: hit=%v err=%v", r1.Hit, err)
	}
	r2, err := e.Plan(q)
	if err != nil || !r2.Hit {
		t.Fatalf("second Plan: hit=%v err=%v", r2.Hit, err)
	}
	if r1.Prepared.Shape != r2.Prepared.Shape || r1.Sig != q.Signature() || r2.Sig != r1.Sig {
		t.Fatal("cache returned a different plan")
	}
}

func TestExplainSurfaces(t *testing.T) {
	e := New(Options{})
	p, err := e.Prepare(mustQuery(t, "P(x | y), !N('c' | y)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Program() == nil {
		t.Fatal("FO query should compile")
	}
	if n := p.RewritingSize(); n <= 0 {
		t.Fatalf("RewritingSize = %d", n)
	}
	sum := p.PlanSummary()
	if len(sum) == 0 {
		t.Fatal("empty plan summary")
	}
	for _, line := range sum {
		if !strings.Contains(line, "∈") {
			t.Fatalf("malformed plan line %q", line)
		}
	}
	if got := fo.Size(fo.Truth(true)); got != 1 {
		t.Fatalf("Size(Truth) = %d", got)
	}

	np, err := e.Prepare(mustQuery(t, "R(x | y), S(y | x)"))
	if err != nil {
		t.Fatal(err)
	}
	if np.Program() != nil || np.RewritingSize() != 0 {
		t.Fatal("not-FO query must report no compiled program and size 0")
	}
}
