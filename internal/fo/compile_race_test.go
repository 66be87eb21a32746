package fo_test

import (
	"math/rand"
	"sync"
	"testing"

	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/rewrite"
)

// One compiled program and one interned database shared by 32 goroutines:
// programs, bounds, and indexes must be read-only after build, with all
// per-evaluation state confined to pooled machines. Run under -race.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(318))
	opts := gen.DefaultQueryOptions()
	var f fo.Formula
	var q = gen.Query(rng, opts)
	for {
		rw, err := rewrite.Rewrite(q)
		if err == nil {
			f = rw
			break
		}
		q = gen.Query(rng, opts)
	}
	d := gen.Database(rng, q, gen.DBOptions{
		BlocksPerRelation: 64, MaxBlockSize: 2, DomainPerVariable: 16, ConstantBias: 0.7,
	})
	ix := d.Interned()
	p := fo.MustCompile(f)
	b := p.Bind(ix)
	want := fo.EvalReference(d, f)

	const goroutines = 32
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var got bool
				switch (g + i) % 2 {
				case 0:
					got = b.Eval()
				default:
					// Concurrent Bind against the shared interned view.
					got = p.Bind(ix).Eval()
				}
				if got != want {
					select {
					case errs <- "concurrent evaluation disagreed with sequential answer":
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
