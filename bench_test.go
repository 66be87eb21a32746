// Package cqa's root benchmark harness: one benchmark family per
// experiment of DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The absolute numbers depend on the host; EXPERIMENTS.md records the
// shapes that matter (who wins, by what factor, where the crossovers are).
package cqa

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/direct"
	"cqa/internal/engine"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/matching"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/reduction"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
	"cqa/internal/server"
	"cqa/internal/special"
)

func figure1() *db.Database {
	return parse.MustDatabase(`
		R(Alice | Bob)
		R(Alice | George)
		R(Maria | Bob)
		R(Maria | John)
		S(Bob | Alice)
		S(Bob | Maria)
		S(George | Alice)
		S(George | Maria)
	`)
}

// E1: certainty of q1 on the Figure 1 database by repair enumeration.
func BenchmarkE1Fig1GirlsBoys(b *testing.B) {
	d := figure1()
	q1 := reduction.Q1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive.IsCertain(q1, d) {
			b.Fatal("q1 must not be certain on Figure 1")
		}
	}
}

// E2: classification (attack graph + rewriting construction) of every
// example query in the paper.
func BenchmarkE2Classify(b *testing.B) {
	queries := []string{
		"R(x | y), S(y | x)",
		"R(x | y), !S(y | x)",
		"R(x, y), !S(x | y), !T(y | x)",
		"P(x | y), !N('c' | y)",
		"S(x), !N1('c' | x), !N2('c' | x), !N3('c' | x)",
		"Mayor(t | p), !Lives(p | t)",
		"Likes(p, t), !Lives(p | t), !Mayor(t | p)",
		"Lives(p | t), !Born(p | t), !Likes(p, t)",
		"Likes(p, t), !Born(p | t), !Lives(p | t)",
		"X(x), Y(y), !R(x | y), !S(y | x)",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range queries {
			if _, err := core.Classify(parse.MustQuery(src)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E3: construction of the q_Hall rewriting by ℓ (exponential output size)
// and its evaluation on a fixed S-COVERING instance (the program compiled
// and bound outside the loop).
func BenchmarkE3HallRewriting(b *testing.B) {
	for l := 1; l <= 5; l++ {
		b.Run(fmt.Sprintf("construct/l=%d", l), func(b *testing.B) {
			q := reduction.QHall(l)
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Rewrite(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for l := 1; l <= 3; l++ {
		b.Run(fmt.Sprintf("evaluate/l=%d", l), func(b *testing.B) {
			q := reduction.QHall(l)
			f, err := rewrite.Rewrite(q)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			inst := gen.SCovering(rng, 4, l, 0.5)
			bound := boundRewriting(b, f, reduction.SCoveringToQHall(inst))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bound.Eval()
			}
		})
	}
}

// E4: the BPM reduction: direct Hopcroft–Karp vs repair enumeration on
// the reduced database.
func BenchmarkE4BPMReduction(b *testing.B) {
	q1 := reduction.Q1()
	for _, n := range []int{3, 5} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := gen.Bipartite(rng, n, 0.35)
		d, err := reduction.BPMToQ1(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("hopcroft-karp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.HasPerfectMatching(g)
			}
		})
		b.Run(fmt.Sprintf("naive-certainty/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naive.IsCertain(q1, d)
			}
		})
	}
}

// E5: the UFA reduction end to end.
func BenchmarkE5UFAReduction(b *testing.B) {
	q2 := reduction.Q2()
	for _, n := range []int{3, 5} {
		rng := rand.New(rand.NewSource(int64(n)))
		inst := gen.UFA(rng, n, n)
		b.Run(fmt.Sprintf("reduce+decide/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := reduction.UFAToQ2(inst)
				if err != nil {
					b.Fatal(err)
				}
				naive.IsCertain(q2, d)
			}
		})
	}
}

// E6: the q4 decision procedure vs repair enumeration.
func BenchmarkE6Q4Special(b *testing.B) {
	d := special.Figure3Database()
	q := parse.MustQuery("X(x), Y(y), !R(x | y), !S(y | x)")
	b.Run("special", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !special.Q4Certain(d) {
				b.Fatal("Figure 3 must be certain")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !naive.IsCertain(q, d) {
				b.Fatal("Figure 3 must be certain")
			}
		}
	})
}

// E7: the data-complexity scaling claim: rewriting evaluation (the
// program compiled and bound outside the loop) and Algorithm 1 against
// repair enumeration on growing databases.
func BenchmarkE7Scaling(b *testing.B) {
	q := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	f, err := rewrite.Rewrite(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, blocks := range []int{4, 16, 64, 256} {
		rng := rand.New(rand.NewSource(int64(blocks)))
		opt := gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2, DomainPerVariable: blocks, ConstantBias: 0.7}
		d := gen.Database(rng, q, opt)
		b.Run(fmt.Sprintf("rewriting/blocks=%d", blocks), func(b *testing.B) {
			bound := boundRewriting(b, f, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bound.Eval()
			}
		})
		b.Run(fmt.Sprintf("algorithm1/blocks=%d", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := direct.IsCertain(q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		if blocks <= 8 {
			b.Run(fmt.Sprintf("naive/blocks=%d", blocks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					naive.IsCertain(q, d)
				}
			})
		}
	}
}

// boundRewriting compiles the sentence f and binds it to d.
func boundRewriting(b *testing.B, f fo.Formula, d *db.Database) *fo.Bound {
	p, err := fo.Compile(f, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p.Bind(d.Interned())
}

// E8: classification throughput on random weakly-guarded queries.
func BenchmarkE8RandomQueries(b *testing.B) {
	rng := rand.New(rand.NewSource(2025))
	opts := gen.DefaultQueryOptions()
	queries := make([]string, 100)
	for i := range queries {
		queries[i] = gen.Query(rng, opts).String()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := parse.MustQuery(queries[i%len(queries)])
		if _, err := core.Classify(q); err != nil {
			b.Fatal(err)
		}
	}
}

// E9: attack-graph construction on chain queries of growing size
// (polynomial-time decidability of the dichotomy test).
func BenchmarkE9AttackGraph(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		q := chainQueryBench(n)
		b.Run(fmt.Sprintf("atoms=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Classify(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The serving engine's plan cache. cached/prepare must beat cold/prepare by well
// over an order of magnitude — the plan cache reduces repeated queries to
// one signature computation and an LRU lookup, skipping classification
// and rewriting entirely.
func BenchmarkPlanCache(b *testing.B) {
	q := chainQueryBench(12)
	b.Run("cold/prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Prepare(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached/prepare", func(b *testing.B) {
		e := engine.New(engine.Options{})
		if _, err := e.Prepare(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Prepare(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Batch evaluation of ≥ 8 independent checks, sequential loop vs the
// worker pool. The pool wins require GOMAXPROCS > 1; on a single CPU both
// modes must at least tie.
func BenchmarkBatch(b *testing.B) {
	q := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	rng := rand.New(rand.NewSource(12))
	items := make([]engine.Item, 16)
	for i := range items {
		opt := gen.DBOptions{BlocksPerRelation: 128, MaxBlockSize: 2, DomainPerVariable: 64, ConstantBias: 0.7}
		items[i] = engine.Item{Query: q, DB: gen.Database(rng, q, opt)}
	}
	e := engine.New(engine.Options{})
	p, err := e.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, it := range items {
		p.Certain(it.DB) // warm memoized db state for both modes
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				p.Certain(it.DB)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range e.CertainBatch(context.Background(), items) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// inlineFOText renders a 2 000-fact database of the inline FO shape
// Lives(p | t), !Born(p | t), !Likes(p, t): 666 people born where they
// live and liking a random one of 50 towns, four living in two towns
// at once, and one of those on whom the query holds in every repair.
func inlineFOText(rng *rand.Rand) string {
	var sb strings.Builder
	for i := 0; i < 666; i++ {
		t := rng.Intn(50)
		fmt.Fprintf(&sb, "Lives(p%d | t%d)\nBorn(p%d | t%d)\nLikes(p%d, t%d)\n", i, t, i, t, i, rng.Intn(50))
	}
	for i := 0; i < 4; i++ {
		t1, t2 := rng.Intn(4), rng.Intn(4)
		fmt.Fprintf(&sb, "Lives(q%d | s%d)\nLives(q%d | u%d)\nBorn(q%d | s%d)\n", i, t1, i, t2, i, t1)
	}
	sb.WriteString("Lives(w | s0)\nLives(w | s1)\nBorn(w | t0)\n")
	return sb.String()
}

// The rewriting of Lives(p | t), !Born(p | t), !Likes(p, t) quantifies
// ∀z2 (Born(v0, z2) → …) with ∃z3/∀z3 nested inside, so it stays scalar;
// its block driver walks v0's Born block instead of Born.1's posting
// (docs/EVAL.md). warm evaluates the bound program of one database
// (0 allocs/op); cold is an inline request's work on it: parse the
// facts, freeze, bind and evaluate.
func BenchmarkBlockDrivenEval(b *testing.B) {
	q := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	p, err := core.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(strings.Join(p.PlanSummary(), "; "), "(block Born[") {
		b.Fatalf("no binder walks a Born block: %v", p.PlanSummary())
	}
	text := inlineFOText(rand.New(rand.NewSource(1)))
	d := parse.MustDatabase(text)
	want := naive.IsCertain(q, d)
	if p.Certain(d) != want {
		b.Fatal("compiled disagrees with repair enumeration")
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Certain(d)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p.Certain(parse.MustDatabase(text)) != want {
				b.Fatal("cold verdict differs")
			}
		}
	})
}

func chainQueryBench(n int) schema.Query {
	src := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			src += ", "
		}
		src += fmt.Sprintf("R%d(x%d | x%d)", i, i, i+1)
	}
	src += ", !N(x0 | x1)"
	return parse.MustQuery(src)
}

// storeText renders the served store's shape as fact text: R and S over
// 17 000 keys each, values from a 16-symbol domain — 34 000 facts, the
// size of the seed a store workload creates its database with.
func storeText() string {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < 17000; i++ {
		fmt.Fprintf(&sb, "R(k%05d | v%02d)\nS(k%05d | v%02d)\n", i, rng.Intn(16), i, rng.Intn(16))
	}
	return sb.String()
}

// distinctText renders n facts in the matching shape of an inline
// database, P(u | v) beside N(v | u), where no two rows share a value:
// n distinct values, each met twice.
func distinctText(n int) string {
	var sb strings.Builder
	for i := 0; i < n/2; i++ {
		fmt.Fprintf(&sb, "P(u%d | v%d)\nN(v%d | u%d)\n", i, i, i, i)
	}
	return sb.String()
}

// The load path (docs/EVAL.md, "Loading"): fact text through the scanner
// and the bulk loader into dictionary ids and id rows — a cold inline
// request's 2 000 facts, in the FO shape (a third of them bring a new
// value) and in the matching shape (every value new to its row), and a
// store seed's 34 000.
func BenchmarkLoadFacts(b *testing.B) {
	for _, tc := range []struct {
		name, text string
	}{
		{"facts=2000", gen.FactsText(rand.New(rand.NewSource(1)), 2000)},
		{"facts=2000,distinct", distinctText(2000)},
		{"facts=34000", storeText()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.text)))
			for i := 0; i < b.N; i++ {
				if _, err := parse.Database(tc.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Decoding a /v1/certain body that carries 2 000 facts
// (docs/SERVING.md, "Decoding"): the fast path, whose output is the fact
// text unescaped.
func BenchmarkDecodeCertainRequest(b *testing.B) {
	body, err := json.Marshal(server.CertainRequest{
		Query: "Lives(x | y), !Born(x | y)",
		Facts: gen.FactsText(rand.New(rand.NewSource(1)), 2000),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := server.ParseCertainRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}

// Freezing a loaded 2 000-fact database for the compiled evaluators. Each
// iteration freezes a database nobody froze before (the parse is outside
// the timer).
func BenchmarkFreeze(b *testing.B) {
	text := gen.FactsText(rand.New(rand.NewSource(1)), 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := parse.MustDatabase(text)
		b.StartTimer()
		d.Interned()
	}
}

// The in-memory part of a one-fact store write at the served store's size
// (34 000 facts): copy the written relation, insert, freeze the new
// version beside the old one's untouched relations.
func BenchmarkCloneOneFactWrite(b *testing.B) {
	base := db.New()
	base.MustDeclare("R", 2, 1)
	base.MustDeclare("S", 2, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 17000; i++ {
		k := fmt.Sprintf("k%05d", i)
		base.MustInsert(db.F("R", k, fmt.Sprintf("v%02d", rng.Intn(16))))
		base.MustInsert(db.F("S", k, fmt.Sprintf("v%02d", rng.Intn(16))))
	}
	base.Interned() // readers froze the version being written over
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := base.CloneCOW("R")
		next.MustInsert(db.F("R", "k00007", "fresh"))
		next.Interned()
	}
}

// The first HoleSet probe of a fresh view builds the (relation, hole)
// index the bitmap evaluator reads (docs/EVAL.md): R(k | v) with two
// values per block over an inline database's 700 keys and a store's
// 20 000, for the non-key hole (one group per block) and the key hole.
// Each iteration probes a view nobody probed before; the one-fact writes
// that make them are outside the timer, 16 at a time, since stopping the
// timer costs as much as a 700-key build.
func BenchmarkHoleIndexBuild(b *testing.B) {
	for _, keys := range []int{700, 20000} {
		base := db.New()
		base.MustDeclare("R", 2, 1)
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%05d", i)
			base.MustInsert(db.F("R", k, fmt.Sprintf("v%05d", i)))
			base.MustInsert(db.F("R", k, fmt.Sprintf("v%05d", i+1)))
		}
		ix := base.Interned()
		k0, _ := ix.ID("k00000")
		v0, _ := ix.ID("v00000")
		for _, tc := range []struct {
			name string
			hole int
			rest int32
		}{{"nonkey", 1, k0}, {"key", 0, v0}} {
			b.Run(fmt.Sprintf("keys=%d/hole=%s", keys, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				var views []*db.InternedRelation
				for i := 0; i < b.N; i++ {
					if len(views) == 0 {
						b.StopTimer()
						for j := 0; j < 16; j++ {
							next := base.CloneCOW("R")
							next.MustInsert(db.F("R", "fresh", fmt.Sprint(j)))
							views = append(views, next.Interned().Relation("R"))
						}
						b.StartTimer()
					}
					if views[0].HoleSet(tc.hole, []int32{tc.rest}).Card() == 0 {
						b.Fatal("empty hole set")
					}
					views = views[1:]
				}
			})
		}
	}
}

// Certain answers of q1(x) = R(x | y), ¬S(y | x) over 8 000 R-keys, every
// third key in conflict and every fifth blocked by an S-fact: one
// prepared shape, one bound instance per candidate (core.CertainAnswers).
func BenchmarkCertainAnswers(b *testing.B) {
	const keys = 8000
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	for i := 0; i < keys; i++ {
		k, v := fmt.Sprintf("k%05d", i), fmt.Sprintf("a%05d", i)
		d.MustInsert(db.F("R", k, v))
		if i%3 == 0 {
			d.MustInsert(db.F("R", k, fmt.Sprintf("b%05d", i)))
		}
		if i%5 == 0 {
			d.MustInsert(db.F("S", v, k))
		}
	}
	q := parse.MustQuery("R(x | y), !S(y | x)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers, err := core.CertainAnswers(q, []string{"x"}, d)
		if err != nil {
			b.Fatal(err)
		}
		if len(answers) != keys-keys/5 {
			b.Fatalf("%d certain answers, want %d", len(answers), keys-keys/5)
		}
	}
}

// The hard class by search (naive.RepairSearch) on the shape of the
// benchmark's inline_eval hard databases (bench/gen.go): 2 000 facts of
// P(u | v), !N(v | u), !M(u | v) whose bulk embeddings each meet their
// N-fact in a singleton block, beside three P-blocks that choose
// between a shared y0 and their own z. The search names those three
// blocks and y0's N-block; without the witness P(lone | nobody), which
// no repair can falsify, it must find the falsifying choice.
func BenchmarkHardSearch(b *testing.B) {
	for _, witness := range []bool{false, true} {
		var facts strings.Builder
		for i := 0; i < 2000/3; i++ {
			fmt.Fprintf(&facts, "P(u%d | v%d)\nN(v%d | u%d)\nM(u%d | w%d)\n", i, i, i, i, i, i)
		}
		for j := 0; j < 3; j++ {
			fmt.Fprintf(&facts, "P(x%d | y0)\nP(x%d | z%d)\nN(y0 | x%d)\n", j, j, j, j)
			if j < 2 {
				fmt.Fprintf(&facts, "N(z%d | x%d)\n", j, j)
			}
		}
		if witness {
			facts.WriteString("P(lone | nobody)\n")
		}
		d := parse.MustDatabase(facts.String())
		q := parse.MustQuery("P(u | v), !N(v | u), !M(u | v)")
		p, err := core.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		d.Interned()
		b.Run(fmt.Sprintf("witness=%v", witness), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p.Certain(d) != witness {
					b.Fatalf("certain = %v, want %v", !witness, witness)
				}
			}
		})
	}
}
