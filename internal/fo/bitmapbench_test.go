package fo_test

import (
	"math/rand"
	"testing"

	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/parse"
	"cqa/internal/rewrite"
)

// benchBound builds the E-series scaling workload at the given block
// count and returns the bound program (bench's fo.warm_eval_ns is the
// recorded number; this benchmark is the in-package probe).
func benchBound(b *testing.B, blocks int) *fo.Bound {
	q := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	f, err := rewrite.Rewrite(q)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(blocks)))
	opt := gen.DBOptions{BlocksPerRelation: blocks, MaxBlockSize: 2,
		DomainPerVariable: blocks, ConstantBias: 0.7}
	d := gen.Database(rng, q, opt)
	p := fo.MustCompile(f)
	if p.VecQuants() == 0 {
		b.Fatal("the benchmark workload lowered no quantifier")
	}
	return p.Bind(d.Interned())
}

func BenchmarkBitmapEval1024(b *testing.B) {
	bound := benchBound(b, 1024)
	bound.Eval() // build the lazy hole indexes outside the timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound.Eval()
	}
}
