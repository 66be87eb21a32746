package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/naive"
	"cqa/internal/schema"
	"cqa/internal/store"
)

// carryDomain is the constant pool of the property test: every position
// of every fact and every query constant draws from it, so random
// queries and random writes actually meet.
var carryDomain = []string{"a", "b", "c"}

// randomCarryQuery draws a query over R, S, T (stored, signature [3,2])
// and N (never declared in the database). coKeyed fixes one key tuple
// for all atoms — each position a variable or a constant — otherwise
// atoms draw their keys independently. One co-keyed query in eight is
// ground with every atom negated: true on a key nothing is stored
// under, so it is sound only because keys outside the tuple's constants
// are never looked at.
func randomCarryQuery(rng *rand.Rand, coKeyed bool) schema.Query {
	allNegated := coKeyed && rng.Intn(8) == 0
	term := func(vars []string) schema.Term {
		if allNegated || rng.Intn(3) == 0 {
			return schema.Const(carryDomain[rng.Intn(len(carryDomain))])
		}
		return schema.Var(vars[rng.Intn(len(vars))])
	}
	keyVars, allVars := []string{"x", "y"}, []string{"x", "y", "z", "w"}
	shared := []schema.Term{term(keyVars), term(keyVars)}
	rels := []string{"R", "S", "T", "N"}
	rng.Shuffle(len(rels), func(i, j int) { rels[i], rels[j] = rels[j], rels[i] })
	var lits []schema.Literal
	for i, rel := range rels[:1+rng.Intn(3)] {
		key := shared
		if !coKeyed {
			key = []schema.Term{term(allVars), term(allVars)}
		}
		a := schema.NewAtom(rel, 2, key[0], key[1], term(allVars))
		lits = append(lits, schema.Literal{Neg: allNegated || (i > 0 && rng.Intn(2) == 0), Atom: a})
	}
	return schema.NewQuery(lits...)
}

type carryStep struct {
	c         store.Change
	prev, cur store.Snapshot
}

// TestCarryMatchesReevaluation drives random queries through random
// write sequences on a store, maintaining each verdict by
// the carry rule alone, and checks it at every version against the
// compiled evaluation of the whole database and against repair
// enumeration. The unknown branch must be reached, and falls back to
// re-evaluation.
func TestCarryMatchesReevaluation(t *testing.T) {
	var nCarried, nKept, nFlipped, nUnknown, nNotApplicable int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := store.NewMem("carry", nil)
		var steps []carryStep
		prev := sh.Snapshot()
		sh.SetOnApply(func(c store.Change) {
			cur := sh.Snapshot()
			steps = append(steps, carryStep{c, prev, cur})
			prev = cur
		})
		for _, rel := range []string{"R", "S", "T"} {
			if _, err := sh.Declare(rel, 3, 2); err != nil {
				t.Fatal(err)
			}
		}
		fact := func() db.Fact {
			pick := func() string { return carryDomain[rng.Intn(len(carryDomain))] }
			return db.F([]string{"R", "S", "T"}[rng.Intn(3)], pick(), pick(), pick())
		}
		for i := 0; i < 12; i++ {
			if _, err := sh.Insert(fact()); err != nil {
				t.Fatal(err)
			}
		}

		type tracked struct {
			q       schema.Query
			prep    *core.Prepared
			coKeyed bool
			verdict bool
		}
		var qs []*tracked
		for len(qs) < 40 {
			coKeyed := len(qs)%4 != 0
			q := randomCarryQuery(rng, coKeyed)
			prep, err := core.Prepare(q)
			if err != nil {
				continue // unsafe negation
			}
			_, coKeyed = q.CoKey()
			qs = append(qs, &tracked{q: q, prep: prep, coKeyed: coKeyed, verdict: prep.Certain(sh.Snapshot().DB)})
		}

		steps = steps[:0]
		for w := 0; w < 80; w++ {
			// One to three facts per batch, so batches span blocks; deletes
			// draw from what is stored, so blocks get emptied.
			batch := make([]db.Fact, 1+rng.Intn(3))
			del := rng.Intn(2) == 0
			stored := sh.Snapshot().DB.AllFacts()
			for i := range batch {
				batch[i] = fact()
				if del && len(stored) > 0 {
					batch[i] = stored[rng.Intn(len(stored))]
				}
			}
			var err error
			if del {
				_, err = sh.Delete(batch...)
			} else {
				_, err = sh.Insert(batch...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		for _, st := range steps {
			whole := st.cur.DB
			for _, tq := range qs {
				want := tq.prep.Certain(whole)
				if oracle := naive.IsCertain(tq.q, whole); oracle != want {
					t.Fatalf("seed %d v%d %s: compiled %v, repair enumeration %v", seed, st.c.Version, tq.q, want, oracle)
				}
				keys, ok := DirtyKeys(tq.q, st.c)
				if ok != tq.coKeyed {
					t.Fatalf("seed %d %s: DirtyKeys ok=%v, co-keyed=%v", seed, tq.q, ok, tq.coKeyed)
				}
				if !ok {
					nNotApplicable++
					tq.verdict = want
					continue
				}
				evals := 0
				got, known := Carry(tq.q, tq.verdict, keys, st.prev.DB, whole, func(sub *db.Database) bool {
					evals++
					return tq.prep.CertainScratch(sub)
				})
				switch {
				case !known:
					nUnknown++
					if !tq.verdict {
						t.Fatalf("seed %d %s: unknown from a false verdict", seed, tq.q)
					}
					got = want // the fallback: re-evaluate
				case got != want:
					t.Fatalf("seed %d v%d %s: carried %v from %v over keys %v, re-evaluation says %v\n%s",
						seed, st.c.Version, tq.q, got, tq.verdict, keys, want, whole)
				case len(keys) == 0:
					nKept++
					if evals != 0 {
						t.Fatalf("seed %d %s: %d evaluations with no dirty key", seed, tq.q, evals)
					}
				default:
					nCarried++
					if got != tq.verdict {
						nFlipped++
					}
				}
				tq.verdict = got
			}
		}
	}
	t.Logf("carried by evaluation %d (%d flips), kept without evaluation %d, unknown %d, not co-keyed %d",
		nCarried, nFlipped, nKept, nUnknown, nNotApplicable)
	for name, n := range map[string]int{"carried": nCarried, "flipped": nFlipped, "kept": nKept, "unknown": nUnknown, "not co-keyed": nNotApplicable} {
		if n == 0 {
			t.Errorf("the %s branch was never reached", name)
		}
	}
}

// The rule refuses what it cannot see: a relation reported as touched
// without its blocks, keys of another length than the query's, and
// batches past maxCarryBlocks.
func TestDirtyKeysRefusals(t *testing.T) {
	q := schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Const("k"), schema.Var("y"))),
		schema.Neg(schema.NewAtom("S", 1, schema.Const("k"), schema.Var("y"))))
	block := func(rel string, key ...string) store.BlockRef { return store.BlockRef{Rel: rel, Key: key} }

	keys, ok := DirtyKeys(q, store.Change{Rels: []string{"R", "U"}, Blocks: []store.BlockRef{
		block("R", "other"), block("R", "k"), block("U", "k"), block("R", "k")}})
	if !ok || len(keys) != 1 || keys[0][0] != "k" {
		t.Fatalf("keys = %v, ok = %v; want the one block the ground key admits, once", keys, ok)
	}
	if keys, ok := DirtyKeys(q, store.Change{Rels: []string{"U"}, Blocks: []store.BlockRef{block("U", "k")}}); !ok || len(keys) != 0 {
		t.Fatalf("write to an unmentioned relation: keys = %v, ok = %v", keys, ok)
	}
	for name, c := range map[string]store.Change{
		"no block detail": {Rels: []string{"R", "S"}, Blocks: []store.BlockRef{block("R", "k")}},
		"other key arity": {Rels: []string{"R"}, Blocks: []store.BlockRef{block("R", "k", "k2")}},
		"oversized batch": {Rels: []string{"R"}, Blocks: func() []store.BlockRef {
			var bs []store.BlockRef
			for i := 0; i <= maxCarryBlocks; i++ {
				bs = append(bs, block("R", fmt.Sprint(i)))
			}
			return bs
		}()},
	} {
		if _, ok := DirtyKeys(q, c); ok {
			t.Errorf("%s: DirtyKeys accepted the change", name)
		}
	}
	if _, ok := DirtyKeys(schema.NewQuery(
		schema.Pos(schema.NewAtom("R", 1, schema.Var("x"), schema.Var("y"))),
		schema.Neg(schema.NewAtom("S", 1, schema.Var("y"), schema.Var("x")))),
		store.Change{Rels: []string{"R"}, Blocks: []store.BlockRef{block("R", "k")}}); ok {
		t.Error("a query that is not co-keyed was accepted")
	}
}

// A stored relation whose signature is not the query's leaves the
// verdict open rather than reading its blocks under the wrong key.
func TestCarrySignatureMismatch(t *testing.T) {
	q := schema.NewQuery(schema.Pos(schema.NewAtom("R", 1, schema.Var("x"), schema.Var("y"))))
	d := db.New()
	d.MustDeclare("R", 2, 2)
	d.MustInsert(db.F("R", "k", "v"))
	_, known := Carry(q, false, [][]string{{"k"}}, d, d,
		func(*db.Database) bool { t.Fatal("evaluated"); return false })
	if known {
		t.Fatal("carried across a signature mismatch")
	}
}

// Co-keyed watch groups decide by the carry rule: a write into another
// block of a watched relation is a skip with no evaluation of the
// database, a flip is found from the written block alone, and the one
// open case re-evaluates.
func TestDeltaCarriesCoKeyedGroups(t *testing.T) {
	h := newHarness(t, "R(k0 | v0)\nR(k1 | v0)\nS(k9 | v9)\n", Options{})
	w, state := h.watch("R(x | 'v0'), !S(x | 'v0')")
	if !state.Verdict {
		t.Fatal("initial verdict false, want true")
	}
	counters := func() [3]uint64 {
		h.mgr.Quiesce("test")
		s, r, f := h.counters()
		return [3]uint64{s, r, f}
	}

	// A fresh value in a fresh block: the carry rule re-checks block k7
	// alone and skips.
	h.insert("R", "k7", "brand-new")
	if got := counters(); got != [3]uint64{1, 0, 0} {
		t.Fatalf("after R(k7): counters %v, want [1 0 0]", got)
	}
	// Blocking one of two witnesses: o ∧ a ∧ ¬b, the open case.
	h.insert("S", "k0", "v0")
	if got := counters(); got != [3]uint64{1, 1, 0} {
		t.Fatalf("after S(k0): counters %v, want [1 1 0]", got)
	}
	// Blocking the last one: open again, and the re-evaluation flips.
	c := h.insert("S", "k1", "v0")
	if got := counters(); got != [3]uint64{1, 1, 1} {
		t.Fatalf("after S(k1): counters %v, want [1 1 1]", got)
	}
	if ev := <-w.Events(); ev.Version != c.Version || !ev.From || ev.To || len(ev.Blocks) != 1 || ev.Blocks[0] != "S(k1)" {
		t.Fatalf("flip event %+v", ev)
	}
	// Unblocking k0: b holds, so the flip back needs the block alone.
	c = h.delete("S", "k0", "v0")
	if got := counters(); got != [3]uint64{1, 1, 2} {
		t.Fatalf("after deleting S(k0): counters %v, want [1 1 2]", got)
	}
	if ev := <-w.Events(); ev.Version != c.Version || ev.From || !ev.To {
		t.Fatalf("flip event %+v", ev)
	}
}
