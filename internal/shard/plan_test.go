package shard_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/shard"
)

// place splits d by block under owner (nil = shard.Owner), declaring
// every relation on every shard as the write path's broadcast does.
func place(d *db.Database, n int, owner shard.HashFunc) []*db.Database {
	if owner == nil {
		owner = shard.Owner
	}
	out := make([]*db.Database, n)
	for i := range out {
		out[i] = db.New()
	}
	for _, rel := range d.RelationNames() {
		r := d.Relation(rel)
		for _, s := range out {
			s.MustDeclare(rel, r.Arity, r.Key)
		}
		d.Blocks(rel, func(block []db.Fact) bool {
			i := owner(rel, block[0].Args[:r.Key], n)
			for _, f := range block {
				out[i].MustInsert(f)
			}
			return true
		})
	}
	return out
}

// coKeyedQuery draws a query whose atoms all carry one key tuple: the
// shape the co-location rule is about. The key mixes variables and
// constants; sometimes it is all constants, which pins the query.
func coKeyedQuery(rng *rand.Rand) schema.Query {
	key := make([]schema.Term, 1+rng.Intn(2))
	for i := range key {
		if rng.Intn(3) == 0 {
			key[i] = schema.Const(fmt.Sprintf("c%d", rng.Intn(2)))
		} else {
			key[i] = schema.Var([]string{"x", "y"}[rng.Intn(2)])
		}
	}
	atom := func(rel string, vars []string) schema.Atom {
		terms := append([]schema.Term{}, key...)
		for i := rng.Intn(3); i > 0; i-- {
			if rng.Intn(4) == 0 {
				terms = append(terms, schema.Const(fmt.Sprintf("c%d", rng.Intn(2))))
			} else {
				terms = append(terms, schema.Var(vars[rng.Intn(len(vars))]))
			}
		}
		return schema.NewAtom(rel, len(key), terms...)
	}
	var lits []schema.Literal
	for i := 1 + rng.Intn(2); i > 0; i-- {
		lits = append(lits, schema.Pos(atom(fmt.Sprintf("P%d", i), []string{"x", "y", "z", "w"})))
	}
	// Negated atoms draw from the positive variables so the query is safe.
	pos := schema.NewQuery(lits...).PositiveVars().Sorted()
	for i := rng.Intn(3); i > 0 && len(pos) > 0; i-- {
		lits = append(lits, schema.Neg(atom(fmt.Sprintf("N%d", i), pos)))
	}
	return schema.NewQuery(lits...)
}

// TestPlanPlacementInvariance is the checked property behind every
// consumer of shard.PlanFor: whatever a plan claims must agree with
// repair enumeration on the whole database. On a scatter plan the OR of
// the planned shards' verdicts is the verdict; on a union plan the
// planned shards' facts (the pinned blocks, when the plan is ground)
// decide it. Checked under the default placement for several shard
// counts and under adversarial placements, where only the
// placement-independent rules may fire.
func TestPlanPlacementInvariance(t *testing.T) {
	placements := map[string]shard.HashFunc{
		"owner": nil,
		"by-relation": func(rel string, key []string, n int) int {
			return shard.Owner(rel, append([]string{rel}, key...), n)
		},
		"piled":         func(_ string, _ []string, n int) int { return n - 1 },
		"relation-only": func(rel string, _ []string, n int) int { return len(rel) * 7 % n },
	}
	rng := rand.New(rand.NewSource(20181017))
	dbOpts := gen.DBOptions{BlocksPerRelation: 3, MaxBlockSize: 2, DomainPerVariable: 2, ConstantBias: 0.8}
	kinds := map[string]int{}
	for c := 0; c < 400; c++ {
		var q schema.Query
		if c%4 == 0 {
			q = gen.Query(rng, gen.DefaultQueryOptions())
		} else if q = coKeyedQuery(rng); q.Validate() != nil {
			continue
		}
		d := gen.Database(rng, q, dbOpts)
		want := naive.IsCertain(q, d)
		for _, n := range []int{1, 2, 3, 5, 8} {
			for name, owner := range placements {
				plan := shard.PlanFor(q, n, owner)
				parts := place(d, n, owner)
				var got bool
				if plan.Scatter() {
					for _, i := range plan.Shards {
						got = got || naive.IsCertain(q, parts[i])
					}
				} else {
					merged := db.New()
					for _, a := range q.Atoms() {
						merged.MustDeclare(a.Rel, a.Arity(), a.Key)
						for _, i := range plan.Shards {
							facts := parts[i].Facts(a.Rel)
							if plan.Ground {
								key := make([]string, a.Key)
								for j, t := range a.KeyTerms() {
									key[j] = t.Name
								}
								facts = parts[i].Block(a.Rel, key)
							}
							for _, f := range facts {
								merged.MustInsert(f)
							}
						}
					}
					got = naive.IsCertain(q, merged)
				}
				if got != want {
					t.Fatalf("case %d, n=%d, placement %s: plan %+v answers %v, whole database %v\nquery: %s\ndb:\n%s",
						c, n, name, plan, got, want, q, d)
				}
				if n > 1 {
					kinds[name+"/"+plan.Kind]++
				}
			}
		}
	}
	t.Logf("plans by placement/kind: %v", kinds)
	// The sweep must have exercised every rule, and the co-keyed rule
	// only where the placement is key-only.
	for _, k := range []string{"owner/pinned", "owner/scatter", "owner/union", "by-relation/pinned", "by-relation/scatter", "by-relation/union"} {
		if kinds[k] < 20 {
			t.Errorf("only %d plans of kind %s: %v", kinds[k], k, kinds)
		}
	}
	if kinds["owner/scatter"] <= 2*kinds["by-relation/scatter"] {
		t.Errorf("co-keyed rule did not fire beyond single atoms: %v", kinds)
	}
}

// TestPlanCoKeyedNeedsKeyOnlyPlacement pins down why the co-keyed rule
// is withheld from an overriding placement: once the relation name is
// hashed, a same-key join can straddle shards, OR-combining per-shard
// verdicts is wrong, and the plan must say union.
func TestPlanCoKeyedNeedsKeyOnlyPlacement(t *testing.T) {
	q, err := parse.Query("R(x | y), S(x | y)")
	if err != nil {
		t.Fatal(err)
	}
	d := parse.MustDatabase("R(a | 1)\nS(a | 1)\n")
	byRel := func(rel string, _ []string, n int) int { return int(rel[0]) % n }

	if plan := shard.PlanFor(q, 2, nil); plan.Kind != shard.PlanScatter || len(plan.Shards) != 2 {
		t.Fatalf("key-only placement plans %+v, want scatter over both shards", plan)
	}
	plan := shard.PlanFor(q, 2, byRel)
	if plan.Scatter() {
		t.Fatalf("relation-dependent placement plans %+v, want union", plan)
	}
	parts := place(d, 2, byRel)
	if !naive.IsCertain(q, d) || naive.IsCertain(q, parts[0]) || naive.IsCertain(q, parts[1]) {
		t.Fatal("fixture lost its point: the join must be certain on the whole and on neither shard")
	}
	// The placement-independent rules still fire under the override.
	for src, kind := range map[string]string{
		"R(x | y)":                shard.PlanScatter,
		"R('a' | y)":              shard.PlanPinned,
		"R('a' | y), !S('b' | y)": shard.PlanUnion, // 'R' and 'S' differ mod 2
	} {
		q, err := parse.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if plan := shard.PlanFor(q, 2, byRel); plan.Kind != kind {
			t.Errorf("%s under a relation-dependent placement plans %+v, want %s", src, plan, kind)
		}
	}
}
