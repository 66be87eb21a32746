package cqa

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/parse"
	"cqa/internal/rewrite"
)

// Ablation A1: the pick order of unattacked atoms in the rewriting
// construction. Any order is correct (Lemma 6.1); the formula size and
// construction time differ. The size is reported as a custom metric.
func BenchmarkAblationPickOrder(b *testing.B) {
	queries := map[string]string{
		"qHall4": "S(x), !N1('c' | x), !N2('c' | x), !N3('c' | x), !N4('c' | x)",
		"qb":     "Likes(p, t), !Born(p | t), !Lives(p | t)",
		// qa has both a positive and negated unattacked atoms, so the
		// strategies produce genuinely different formulas.
		"qa": "Lives(p | t), !Born(p | t), !Likes(p, t)",
	}
	strategies := map[string]rewrite.PickStrategy{
		"first":    rewrite.PickFirst,
		"last":     rewrite.PickLast,
		"posFirst": rewrite.PickPositiveFirst,
		"negFirst": rewrite.PickNegatedFirst,
	}
	for qName, src := range queries {
		q := parse.MustQuery(src)
		for sName, s := range strategies {
			b.Run(fmt.Sprintf("%s/%s", qName, sName), func(b *testing.B) {
				size := 0
				for i := 0; i < b.N; i++ {
					f, err := rewrite.RewriteOpts(q, rewrite.Options{Pick: s})
					if err != nil {
						b.Fatal(err)
					}
					size = fo.Size(f)
				}
				b.ReportMetric(float64(size), "ast-nodes")
			})
		}
	}
}

// Ablation A2: the guard-based quantifier restriction in the FO
// evaluator, against the unoptimized full-active-domain reference. This
// is the design choice that makes rewriting evaluation usable.
func BenchmarkAblationGuardRestriction(b *testing.B) {
	q := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	f, err := rewrite.Rewrite(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, blocks := range []int{8, 32} {
		rng := rand.New(rand.NewSource(int64(blocks)))
		opt := gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2, DomainPerVariable: blocks, ConstantBias: 0.7}
		d := gen.Database(rng, q, opt)
		b.Run(fmt.Sprintf("guarded/blocks=%d", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fo.Eval(d, f)
			}
		})
		b.Run(fmt.Sprintf("reference/blocks=%d", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fo.EvalReference(d, f)
			}
		})
	}
}

// Ablation A4: preparing a query once vs re-classifying per call. The
// per-call saving is the whole classification + rewriting construction.
func BenchmarkAblationPrepared(b *testing.B) {
	q := parse.MustQuery("Likes(p, t), !Born(p | t), !Lives(p | t)")
	rng := rand.New(rand.NewSource(5))
	d := gen.Database(rng, q, gen.DBOptions{BlocksPerRelation: 32, MaxBlockSize: 2, DomainPerVariable: 32, ConstantBias: 0.7})
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Certain(q, d, core.EngineAuto); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		p, err := core.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Certain(d)
		}
	})
}
