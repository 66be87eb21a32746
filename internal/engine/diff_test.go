package engine

import (
	"context"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/gen"
	"cqa/internal/naive"
)

// TestDifferentialEngineVsNaive is the property-based oracle check for
// the engine paths: for ≥ 500 random sjfBCQ¬ queries with acyclic attack
// graphs (CERTAINTY in FO) and small random databases, both evaluation
// paths certainWith can take — the compiled default and the
// ForceTreeWalk rollback — must agree with brute-force repair
// enumeration, and the default's strategy label must be compiled-bitmap
// exactly when the program lowered a quantifier, on the single-item API
// and on the batch API. This extends the exhaustive_test.go style of
// internal/rewrite to the engine layer: the same oracle, but through the
// plan cache and the concurrent paths.
func TestDifferentialEngineVsNaive(t *testing.T) {
	const cases = 500

	rng := rand.New(rand.NewSource(20180610))
	qOpts := gen.DefaultQueryOptions()
	// Small enough for the naive all-repairs oracle: ≤ 2 facts per block,
	// ≤ 2 blocks per relation, ≤ 5 relations → ≤ 2^10 repairs.
	dbOpts := gen.DBOptions{BlocksPerRelation: 2, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.7}

	engines := []struct {
		name string
		eng  *Engine
	}{
		{"default", New(Options{CacheSize: 64})},
		{"ForceTreeWalk", New(Options{CacheSize: 64, ForceTreeWalk: true})},
	}
	def := engines[0].eng
	lowered := 0

	done := 0
	var batch []Item
	var batchWant []bool
	for done < cases {
		q := gen.Query(rng, qOpts)
		cls, err := core.Classify(q)
		if err != nil {
			t.Fatalf("classify %s: %v", q, err)
		}
		if cls.Verdict != core.VerdictFO {
			continue // only acyclic attack graphs: the rewriting must exist
		}
		done++
		d := gen.Database(rng, q, dbOpts)
		want := naive.IsCertain(q, d)

		p, err := def.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %s: %v", q, err)
		}
		vec := p.Program().VecQuants() > 0
		if bitmap := def.Strategy(p) == StrategyCompiledBitmap; bitmap != vec {
			t.Fatalf("case %d: Strategy = %q with %d lowered quantifiers\nquery: %s", done, def.Strategy(p), p.Program().VecQuants(), q)
		}
		if vec {
			lowered++
		}

		// Twice per engine, so the second call exercises a cache hit
		// (alpha-variants of earlier queries hit too).
		for _, e := range engines {
			for pass := 0; pass < 2; pass++ {
				got, err := e.eng.Certain(q, d)
				if err != nil {
					t.Fatalf("%s engine %s: %v", e.name, q, err)
				}
				if got != want {
					t.Fatalf("case %d: %s engine = %v, naive oracle = %v\nquery: %s\ndb:\n%s", done, e.name, got, want, q, d)
				}
			}
		}

		batch = append(batch, Item{Query: q, DB: d})
		batchWant = append(batchWant, want)

		// Flush accumulated checks through the batch API periodically so
		// the worker pool sees mixed workloads.
		if len(batch) == 50 || done == cases {
			for _, e := range engines {
				for i, r := range e.eng.CertainBatch(context.Background(), batch) {
					if r.Err != nil {
						t.Fatalf("%s batch item %d (%s): %v", e.name, i, batch[i].Query, r.Err)
					}
					if r.Certain != batchWant[i] {
						t.Fatalf("%s batch item %d: engine = %v, naive oracle = %v\nquery: %s", e.name, i, r.Certain, batchWant[i], batch[i].Query)
					}
				}
			}
			batch, batchWant = batch[:0], batchWant[:0]
		}
	}

	if lowered == 0 || lowered == cases {
		t.Fatalf("%d of %d programs lowered a quantifier; the label check saw one side only", lowered, cases)
	}
	for _, e := range engines {
		if st := e.eng.Stats(); st.CacheHits == 0 {
			t.Fatalf("%s: differential sweep never hit the cache: %+v", e.name, st)
		}
	}
}
