package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

// TestChangeBlockCompleteness is the property behind incremental
// maintenance: the Change a store reports for a batch must name every
// block whose content differs between the consecutive snapshots. If a
// query's certain answer flips across a batch, some reported dirty
// block witnesses it — delta re-evaluation keyed off Change.Blocks can
// therefore never miss a flip.
func TestChangeBlockCompleteness(t *testing.T) {
	const (
		rounds = 150
		keys   = 6
		values = 4
	)
	rng := rand.New(rand.NewSource(11))

	seed, err := parse.Database("R(k0 | v0)\nS(k0 | v1)\nR(k1 | v2)\n")
	if err != nil {
		t.Fatal(err)
	}
	primary := NewMem("prop", nil)
	seedChange, err := primary.ApplyDB(seed)
	if err != nil {
		t.Fatal(err)
	}

	queries := parseQueries(t,
		"R('k0' | 'v0')",
		"R('k2' | y)",
		"S('k1' | x)",
		"R(x | y)",
		"R(x | y), !S(y | x)",
		"R('k3' | x), !S('k3' | x)",
	)

	changes := make(map[uint64]Change)
	primary.SetOnApply(func(c Change) { changes[c.Version] = c })
	snaps := map[uint64]*db.Database{seedChange.Version: primary.Snapshot().DB.Clone()}
	versions := []uint64{seedChange.Version}

	randFact := func() db.Fact {
		rel := "R"
		if rng.Intn(3) == 0 {
			rel = "S"
		}
		return db.F(rel, fmt.Sprintf("k%d", rng.Intn(keys)), fmt.Sprintf("v%d", rng.Intn(values)))
	}
	for i := 0; i < rounds; i++ {
		var c Change
		var err error
		switch rng.Intn(5) {
		case 0: // single delete
			c, err = primary.Delete(randFact())
		case 1: // multi-fact insert batch
			batch := db.New()
			batch.MustDeclare("R", 2, 1)
			batch.MustDeclare("S", 2, 1)
			for j := rng.Intn(4) + 1; j > 0; j-- {
				f := randFact()
				if !batch.Has(f) {
					batch.MustInsert(f)
				}
			}
			c, err = primary.ApplyDB(batch)
		case 2: // multi-fact delete batch
			batch := db.New()
			batch.MustDeclare("R", 2, 1)
			batch.MustDeclare("S", 2, 1)
			for j := rng.Intn(4) + 1; j > 0; j-- {
				f := randFact()
				if !batch.Has(f) {
					batch.MustInsert(f)
				}
			}
			c, err = primary.WriteDB(nil, batch, true)
		default: // single insert
			c, err = primary.Insert(randFact())
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if c.Applied == 0 {
			continue
		}
		snaps[c.Version] = primary.Snapshot().DB.Clone()
		versions = append(versions, c.Version)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	if len(versions) < 50 {
		t.Fatalf("only %d effective batches; the mix is degenerate", len(versions))
	}

	// The property, batch by batch.
	for i := 1; i < len(versions); i++ {
		prev, next := snaps[versions[i-1]], snaps[versions[i]]
		c, ok := changes[versions[i]]
		if !ok {
			t.Fatalf("version %d has no reported Change", versions[i])
		}
		reported := blockSet(c.Blocks)
		diff := blockDiff(prev, next)
		for b := range diff {
			if !reported[b] {
				t.Fatalf("v%d: block %s differs between snapshots but is not in Change.Blocks %v",
					versions[i], b, c.Blocks)
			}
		}
		for qi, q := range queries {
			was := mustCertain(t, q, prev)
			now := mustCertain(t, q, next)
			if was == now {
				continue
			}
			// A flip needs a witness: some reported dirty block whose
			// content actually changed.
			witnessed := false
			for b := range diff {
				if reported[b] {
					witnessed = true
					break
				}
			}
			if !witnessed {
				t.Fatalf("v%d: query %d flipped %v→%v with no dirty block witness in %v",
					versions[i], qi, was, now, c.Blocks)
			}
		}
	}
}

func parseQueries(t *testing.T, srcs ...string) []schema.Query {
	t.Helper()
	out := make([]schema.Query, len(srcs))
	for i, src := range srcs {
		q, err := parse.Query(src)
		if err != nil {
			t.Fatalf("bad query %q: %v", src, err)
		}
		out[i] = q
	}
	return out
}

// mustCertain answers an FO query by the tree walk over its rewriting,
// so the compiled program is not its own reference; other queries go
// through EngineAuto, as repair enumeration is too slow at this size.
func mustCertain(t *testing.T, q schema.Query, d *db.Database) bool {
	t.Helper()
	v, err := core.Certain(q, d, core.EngineRewriting)
	if errors.Is(err, core.ErrNoRewriting) {
		v, err = core.Certain(q, d, core.EngineAuto)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// blockID renders a block as "rel|k1|k2" using the relation's declared
// key arity.
func blockID(rel string, key []string) string {
	return rel + "|" + strings.Join(key, "|")
}

func blockSet(refs []BlockRef) map[string]bool {
	out := make(map[string]bool, len(refs))
	for _, b := range refs {
		out[blockID(b.Rel, b.Key)] = true
	}
	return out
}

// blockDiff returns the blocks whose fact sets differ between two
// snapshots, across all relations of either.
func blockDiff(prev, next *db.Database) map[string]bool {
	out := make(map[string]bool)
	mark := func(from, against *db.Database) {
		for _, rel := range from.RelationNames() {
			r := from.Relation(rel)
			for _, f := range from.Facts(rel) {
				if !against.Has(f) {
					out[blockID(rel, f.Args[:r.Key])] = true
				}
			}
		}
	}
	mark(prev, next)
	mark(next, prev)
	return out
}
