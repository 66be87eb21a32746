package engine

import (
	"context"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/schema"
	"cqa/internal/store"
)

// TestDifferentialEngineVsNaive is the property-based oracle check for
// the engine paths: for ≥ 500 random sjfBCQ¬ queries with acyclic attack
// graphs (CERTAINTY in FO) and small random databases, the engine's
// compiled path, the query's prepared shape bound for one call
// (core.Prepared.CertainScratch, delta.Carry's path) and the literal
// query's rewriting (core.EngineRewriting) must agree with brute-force
// repair enumeration, and the strategy label must be compiled-bitmap
// exactly when the program lowered a quantifier, on the single-item API
// and on the batch API. This extends the exhaustive_test.go style of
// internal/rewrite to the engine layer: the same oracle, but through the
// plan cache and the concurrent paths. Every case also answers two
// constant-renamed siblings of its query — one swapping the query's
// constants, one naming a constant the database lacks — which share the
// query's shape: each must hit the cached plan and agree with repair
// enumeration and with core's one-shot answer for the sibling itself.
// One cyclic shape carrying a constant reaches the search over block
// choices through the same shape path.
func TestDifferentialEngineVsNaive(t *testing.T) {
	const cases = 500

	rng := rand.New(rand.NewSource(20180610))
	qOpts := gen.DefaultQueryOptions()
	// Small enough for the naive all-repairs oracle: ≤ 2 facts per block,
	// ≤ 2 blocks per relation, ≤ 5 relations → ≤ 2^10 repairs.
	dbOpts := gen.DBOptions{BlocksPerRelation: 2, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.7}

	e := New(Options{})
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

		p, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %s: %v", q, err)
		}
		vec := p.Program().VecQuants() > 0
		if bitmap := Strategy(p) == StrategyCompiledBitmap; bitmap != vec {
			t.Fatalf("case %d: Strategy = %q with %d lowered quantifiers\nquery: %s", done, Strategy(p), p.Program().VecQuants(), q)
		}
		if vec {
			lowered++
		}
		if got := p.CertainScratch(d); got != want {
			t.Fatalf("case %d: scratch = %v, naive oracle = %v\nquery: %s\ndb:\n%s", done, got, want, q, d)
		}
		if got, err := core.Certain(q, d, core.EngineRewriting); err != nil || got != want {
			t.Fatalf("case %d: literal rewriting = %v (%v), naive oracle = %v\nquery: %s\ndb:\n%s", done, got, err, want, q, d)
		}

		// Twice, so the second call exercises a cache hit (alpha-variants
		// of earlier queries hit too).
		for pass := 0; pass < 2; pass++ {
			got, err := e.Certain(q, d)
			if err != nil {
				t.Fatalf("engine %s: %v", q, err)
			}
			if got != want {
				t.Fatalf("case %d: engine = %v, naive oracle = %v\nquery: %s\ndb:\n%s", done, got, want, q, d)
			}
		}

		for _, sib := range constantSiblings(q) {
			checkSibling(t, e, sib, d)
		}

		batch = append(batch, Item{Query: q, DB: d})
		batchWant = append(batchWant, want)

		// Flush accumulated checks through the batch API periodically so
		// the worker pool sees mixed workloads.
		if len(batch) == 50 || done == cases {
			for i, r := range e.CertainBatch(context.Background(), batch) {
				if r.Err != nil {
					t.Fatalf("batch item %d (%s): %v", i, batch[i].Query, r.Err)
				}
				if r.Certain != batchWant[i] {
					t.Fatalf("batch item %d: engine = %v, naive oracle = %v\nquery: %s", i, r.Certain, batchWant[i], batch[i].Query)
				}
			}
			batch, batchWant = batch[:0], batchWant[:0]
		}
	}

	if lowered == 0 || lowered == cases {
		t.Fatalf("%d of %d programs lowered a quantifier; the label check saw one side only", lowered, cases)
	}
	if st := e.Stats(); st.CacheHits == 0 {
		t.Fatalf("differential sweep never hit the cache: %+v", st)
	}

	// A cyclic shape with a constant: the planner's patterns need
	// variables, so every query of it is decided by search over the block
	// choices of the query itself, whatever constant the cached shape was
	// prepared with.
	q := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"), schema.Var("y"))),
		schema.Neg(schema.NewAtom("S", 1, schema.Var("y"), schema.Var("x"))),
		schema.Pos(schema.NewAtom("T", 1, schema.Var("x"), schema.Const("c0"))),
	)
	for i := 0; i < 20; i++ {
		d := gen.Database(rng, q, dbOpts)
		for _, sib := range append([]schema.Query{q}, constantSiblings(q)...) {
			p, err := e.Prepare(sib)
			if err != nil {
				t.Fatal(err)
			}
			if p.InFO() || Strategy(p) != StrategySearch {
				t.Fatalf("%s is served by %q, want %q", sib, Strategy(p), StrategySearch)
			}
			checkSibling(t, e, sib, d)
		}
	}
}

// constantSiblings returns two queries of q's shape: q with its
// constants rotated (a lone one swapped for the generator's other
// constant, c0 ↔ c1), and q with its first constant replaced by one no
// generated database holds. A query without constants is its own
// sibling.
func constantSiblings(q schema.Query) []schema.Query {
	_, vals := q.Shape()
	if len(vals) == 0 {
		return []schema.Query{q, q}
	}
	swap := map[string]string{vals[0]: "c0"}
	if vals[0] == "c0" {
		swap[vals[0]] = "c1"
	}
	if len(vals) > 1 {
		for i, v := range vals {
			swap[v] = vals[(i+1)%len(vals)]
		}
	}
	absent := map[string]string{vals[0]: "absent"}
	return []schema.Query{renameConstants(q, swap), renameConstants(q, absent)}
}

func renameConstants(q schema.Query, to map[string]string) schema.Query {
	out := q.Clone()
	for _, l := range out.Lits {
		for i, t := range l.Atom.Terms {
			if v, ok := to[t.Name]; ok && !t.IsVar {
				l.Atom.Terms[i] = schema.Const(v)
			}
		}
	}
	return out
}

// checkSibling answers sib on d through e, whose plan cache must already
// hold sib's shape, and compares the verdict with repair enumeration,
// with core's answers for sib alone and with the cached shape bound for
// this one call (CertainScratch).
func checkSibling(t *testing.T, e *Engine, sib schema.Query, d *db.Database) {
	t.Helper()
	r, err := e.Plan(sib)
	if err != nil {
		t.Fatalf("plan %s: %v", sib, err)
	}
	if !r.Hit {
		t.Fatalf("%s missed the plan cache its shape is in", sib)
	}
	got, _, err := e.Answer(r, "", store.Snapshot{DB: d})
	if err != nil {
		t.Fatalf("answer %s: %v", sib, err)
	}
	want := naive.IsCertain(sib, d)
	oneShot, err := core.Certain(sib, d, core.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	own, err := core.Prepare(sib)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || oneShot != want || own.Certain(d) != want || r.Prepared.CertainScratch(d) != want {
		t.Fatalf("sibling %s: engine %v, core.Certain %v, core.Prepare %v, scratch %v, naive oracle %v\ndb:\n%s", sib, got, oneShot, own.Certain(d), r.Prepared.CertainScratch(d), want, d)
	}
}
