package planner_test

import (
	"strings"
	"testing"

	"cqa/internal/parse"
	"cqa/internal/planner"
	"cqa/internal/schema"
)

func mustQuery(t *testing.T, s string) schema.Query {
	t.Helper()
	q, err := parse.Query(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return q
}

func TestRecognizeClasses(t *testing.T) {
	cases := []struct {
		query string
		want  planner.Class
	}{
		// q1 up to renaming: mutual negation.
		{"R(x | y), !S(y | x)", planner.ClassMatching},
		{"Emp(a | b), !Audit(b | a)", planner.ClassMatching},
		{"!S(y | x), R(x | y)", planner.ClassMatching}, // literal order is irrelevant
		// q2 up to renaming and per-atom orientation.
		{"E(x, y), !B(x | y), !C(y | x)", planner.ClassReachability},
		{"E(x, y), !B(y | x), !C(x | y)", planner.ClassReachability},
		{"!C(y | x), E(x, y), !B(y | x)", planner.ClassReachability},
		// Near misses must fall through to the hard class.
		{"R(x | y), S(y | x)", planner.ClassHard},             // no negation
		{"R(x | y), !S(x | y)", planner.ClassHard},            // not mutual
		{"R(x | y), !S('c' | x)", planner.ClassHard},          // constant key
		{"R(x, y), !S(y | x)", planner.ClassHard},             // positive atom all-key
		{"E(x | y), !B(x | y), !C(y | x)", planner.ClassHard}, // edge atom not all-key
		{"E(x, y), !B(x | y), !C(x | z), P(x | z)", planner.ClassHard},
	}
	for _, c := range cases {
		p := planner.New(mustQuery(t, c.query), false)
		if p.Class != c.want {
			t.Errorf("%s: class = %s, want %s", c.query, p.Class, c.want)
		}
		switch p.Class {
		case planner.ClassMatching:
			if p.Strategy != planner.StrategyMatching {
				t.Errorf("%s: strategy = %q", c.query, p.Strategy)
			}
		case planner.ClassReachability:
			if p.Strategy != planner.StrategyReachability {
				t.Errorf("%s: strategy = %q", c.query, p.Strategy)
			}
		case planner.ClassHard:
			if p.Strategy != planner.StrategySearch {
				t.Errorf("%s: strategy = %q", c.query, p.Strategy)
			}
		}
		if p.Reason == "" {
			t.Errorf("%s: empty reason", c.query)
		}
	}
}

func TestNewFOPlan(t *testing.T) {
	// The FO flag wins even for a pattern shape: the compiled rewriting
	// upstream serves FO queries, the planner stands aside.
	p := planner.New(mustQuery(t, "R(x | y), !S(y | x)"), true)
	if p.Class != planner.ClassFO {
		t.Fatalf("class = %s, want %s", p.Class, planner.ClassFO)
	}
	if p.Strategy != "" {
		t.Fatalf("FO plan strategy = %q, want empty", p.Strategy)
	}
	if _, ok := p.Certain(nil); ok {
		t.Fatal("FO plan must not claim a decider")
	}
}

func TestDecideRecordsStats(t *testing.T) {
	q := mustQuery(t, "R(x | y), !S(y | x)")
	p := planner.New(q, false)
	d := parse.MustDatabase("R(a | 1)\nR(a | 2)\nR(b | 1)\nS(z | z)")
	dec := p.Decide(d.Interned())
	if dec.Strategy != planner.StrategyMatching {
		t.Fatalf("strategy = %q", dec.Strategy)
	}
	if len(dec.Stats) != 2 || dec.Stats[0].Rel != "R" || dec.Stats[1].Rel != "S" {
		t.Fatalf("stats = %+v", dec.Stats)
	}
	r := dec.Stats[0]
	if r.Facts != 3 || r.Blocks != 2 || r.MaxBlock != 2 {
		t.Fatalf("R stats = %+v", r)
	}
	if !strings.Contains(dec.Reason, "Hopcroft") {
		t.Fatalf("reason = %q", dec.Reason)
	}

	// A relation the snapshot does not declare appears with zero stats.
	empty := parse.MustDatabase("R(a | 1)")
	dec = p.Decide(empty.Interned())
	if dec.Stats[1].Rel != "S" || dec.Stats[1].Facts != 0 {
		t.Fatalf("undeclared S stats = %+v", dec.Stats[1])
	}
}
