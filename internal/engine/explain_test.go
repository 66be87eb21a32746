package engine

import (
	"reflect"
	"strings"
	"testing"

	"cqa/internal/fo"
	"cqa/internal/parse"
	"cqa/internal/shard"
	"cqa/internal/store"
)

func TestStrategyMirrorsCertainWith(t *testing.T) {
	queries := map[string]string{
		"fo": "P(x | y), !N('c' | y)",
		// FO, but x occurs twice in one atom, so no quantifier lowers.
		"fo-scalar": "R(x, x), !S(x | x)",
		// Cyclic (not-FO, Sec 5.1) but negation-free, so neither planner
		// pattern applies: repair enumeration.
		"cyclic": "R(x | y), S(y | x)",
		// The paper's q1 and q2 shapes: planner graph deciders.
		"matching":     "R(x | y), !S(y | x)",
		"reachability": "E(x, y), !B(x | y), !C(y | x)",
	}

	cases := []struct {
		name  string
		opt   Options
		query string
		want  string
	}{
		{"bitmap default", Options{}, "fo", StrategyCompiledBitmap},
		{"no lowered quantifier", Options{}, "fo-scalar", StrategyCompiled},
		{"tree-walk switch", Options{ForceTreeWalk: true}, "fo", StrategyTreeWalk},
		{"naive", Options{}, "cyclic", StrategyNaive},
		{"matching", Options{}, "matching", StrategyMatching},
		{"matching rollback", Options{ForceTreeWalk: true}, "matching", StrategyNaive},
		{"reachability", Options{}, "reachability", StrategyReachability},
		{"reachability rollback", Options{ForceTreeWalk: true}, "reachability", StrategyNaive},
	}
	for _, c := range cases {
		e := New(c.opt)
		q := mustQuery(t, queries[c.query])
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := e.Strategy(p); got != c.want {
			t.Errorf("%s: Strategy = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPrepareCachedReportsOutcome(t *testing.T) {
	e := New(Options{})
	q := mustQuery(t, "R(x | y), !S(x | y)")
	p1, hit, err := e.PrepareCached(q)
	if err != nil || hit {
		t.Fatalf("first PrepareCached: hit=%v err=%v", hit, err)
	}
	p2, hit, err := e.PrepareCached(q)
	if err != nil || !hit {
		t.Fatalf("second PrepareCached: hit=%v err=%v", hit, err)
	}
	if p1 != p2 {
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
	sum := p.Program().PlanSummary()
	if len(sum) == 0 {
		t.Fatal("empty plan summary")
	}
	for _, line := range sum {
		if !strings.Contains(line, "∈") {
			t.Fatalf("malformed plan line %q", line)
		}
	}
	if got := fo.NodeCount(fo.Truth(true)); got != 1 {
		t.Fatalf("NodeCount(Truth) = %d", got)
	}

	np, err := e.Prepare(mustQuery(t, "R(x | y), S(y | x)"))
	if err != nil {
		t.Fatal(err)
	}
	if np.Program() != nil || np.RewritingSize() != 0 {
		t.Fatal("not-FO query must report no compiled program and size 0")
	}
}

func TestShardPlanSingleShard(t *testing.T) {
	sh, err := shard.NewSharded("d", 1, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ApplyDB(parse.MustDatabase("R(a | 1)")); err != nil {
		t.Fatal(err)
	}
	plan, shards := ShardPlanFor(mustQuery(t, "R(x | y), !S(y | x)"), sh.View())
	if plan != ShardPlanSingle || !reflect.DeepEqual(shards, []int{0}) {
		t.Errorf("single: plan=%s shards=%v", plan, shards)
	}
}
