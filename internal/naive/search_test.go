package naive_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

// maxOracleRepairs bounds the repairs the enumeration oracle walks per
// case; draws above it are redrawn, which keeps the differential at a
// few seconds.
const maxOracleRepairs = 1 << 12

// randomCase draws one (query, database) pair: a gen.Query with negated
// atoms and constants, redrawn until its attack graph is cyclic in half
// of the draws (the hard class the search serves is cyclic, and few
// draws are), and a gen.Database for it with blocks of 1–4 facts. Two
// cases in five are then perturbed: a variable becomes a constant the
// database does not know, or one it does, or one of the query's
// relations is emptied or left undeclared.
func randomCase(rng *rand.Rand) (schema.Query, *db.Database) {
	cyclic := rng.Intn(2) == 0
	for {
		q := gen.Query(rng, gen.DefaultQueryOptions())
		if cyclic && attack.New(q).IsAcyclic() {
			continue
		}
		d := gen.Database(rng, q, gen.DBOptions{
			BlocksPerRelation: 1 + rng.Intn(3),
			MaxBlockSize:      1 + rng.Intn(4),
			DomainPerVariable: 2 + rng.Intn(2),
			ConstantBias:      0.7,
		})
		vars := q.Vars().Sorted()
		rels := q.Atoms()
		switch rng.Intn(10) {
		case 0:
			q = q.Substitute(map[string]schema.Term{vars[rng.Intn(len(vars))]: schema.Const("absent")})
		case 1:
			dom := d.ActiveDomain()
			q = q.Substitute(map[string]schema.Term{vars[rng.Intn(len(vars))]: schema.Const(dom[rng.Intn(len(dom))])})
		case 2:
			for _, f := range d.Facts(rels[rng.Intn(len(rels))].Rel) {
				d.Remove(f)
			}
		case 3:
			d = without(d, rels[rng.Intn(len(rels))].Rel)
		}
		if d.NumRepairs() <= maxOracleRepairs {
			return q, d
		}
	}
}

// without returns a copy of d that does not declare rel.
func without(d *db.Database, rel string) *db.Database {
	out := db.New()
	for _, name := range d.RelationNames() {
		if name == rel {
			continue
		}
		r := d.Relation(name)
		out.MustDeclare(name, r.Arity, r.Key)
		for _, f := range d.Facts(name) {
			out.MustInsert(f)
		}
	}
	return out
}

// TestRepairSearchAgainstEnumeration checks the search against repair
// enumeration on random cases; both verdicts and both attack-graph sides
// must show up, so the comparison is not vacuous.
func TestRepairSearchAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const cases = 4000
	var certain, cyclic int
	for i := 0; i < cases; i++ {
		q, d := randomCase(rng)
		want := naive.IsCertain(q, d)
		if got := naive.RepairSearch(q, d.Interned()); got != want {
			t.Fatalf("case %d: %s: search %v, enumeration %v\n%s", i, q, got, want, d)
		}
		if want {
			certain++
		}
		if !attack.New(q).IsAcyclic() {
			cyclic++
		}
	}
	if certain < cases/10 || certain > cases*9/10 || cyclic < cases/10 || cyclic > cases*9/10 {
		t.Fatalf("%d of %d cases certain, %d cyclic: the draw is lopsided", certain, cases, cyclic)
	}
}

// FuzzRepairSearch drives the same differential from fuzzed seeds.
func FuzzRepairSearch(f *testing.F) {
	for _, seed := range []uint64{0, 1, 38, 1 << 40} {
		f.Add(binary.LittleEndian.AppendUint64(nil, seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed [8]byte
		copy(seed[:], data)
		q, d := randomCase(rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:])))))
		if got, want := naive.RepairSearch(q, d.Interned()), naive.IsCertain(q, d); got != want {
			t.Fatalf("%s: search %v, enumeration %v\n%s", q, got, want, d)
		}
	})
}

// TestRepairSearchShortcuts pins the cases the search decides without
// searching, each beside the enumeration oracle.
func TestRepairSearchShortcuts(t *testing.T) {
	cases := []struct {
		name, query, facts string
		want               bool
	}{
		{"empty query", "", "", true},
		{"undeclared positive relation", "R(x | y), !S(y | x)", "S(a | b)", false},
		{"unknown constant in a positive atom", "R(x | 'zz'), !S(x | x)", "R(a | b)", false},
		{"unknown constant in a negated atom", "R(x | y), !S(x | 'zz')", "R(a | b)\nS(a | c)", true},
		{"negated fact in a singleton block", "R(x | y), !S(y | x)", "R(a | b)\nR(a | c)\nS(b | a)\nS(c | a)", false},
		{"empty clause", "R(x | y), !S(y | x)", "R(a | b)\nR(c | d)\nS(b | a)\nS(b | c)", true},
		{"ground atoms", "R('a' | 'b'), !S('b' | 'a')", "R(a | b)\nR(a | c)\nS(b | a)\nS(b | c)", false},
	}
	for _, c := range cases {
		var q schema.Query
		if c.query != "" {
			q = parse.MustQuery(c.query)
		}
		d := parse.MustDatabase(c.facts)
		if got := naive.RepairSearch(q, d.Interned()); got != c.want {
			t.Errorf("%s: search %v, want %v", c.name, got, c.want)
		}
		if oracle := naive.IsCertain(q, d); oracle != c.want {
			t.Errorf("%s: enumeration %v, want %v", c.name, oracle, c.want)
		}
	}
}

// hardShape is the cyclic query no graph decider of the planner serves.
const hardShape = "P(u | v), !N(v | u), !M(u | v)"

// pigeons writes pigeonhole facts for hardShape: each of n P-blocks
// chooses one of the holes h_j, and each hole's N-block one of the
// pigeons p_i. A repair falsifies hardShape iff every pigeon's hole
// chose it back, so hardShape is certain iff n > holes.
func pigeons(sb *strings.Builder, n, holes int) {
	for i := 0; i < n; i++ {
		for j := 0; j < holes; j++ {
			fmt.Fprintf(sb, "P(p%d | h%d)\nN(h%d | p%d)\n", i, j, j, i)
		}
	}
}

// TestRepairSearchScale decides hardShape over 2 000 two-fact P-blocks,
// a number of repairs enumeration cannot walk, of which the clauses name
// five blocks: three pigeons and two holes, or two pigeons. Every other
// embedding meets its negated fact in a singleton block. The verdict
// must equal enumeration's on the five blocks alone.
func TestRepairSearchScale(t *testing.T) {
	q := parse.MustQuery(hardShape)
	for _, n := range []int{3, 2} {
		var special, all strings.Builder
		pigeons(&special, n, 2)
		all.WriteString(special.String())
		for i := n; i < 2000; i++ {
			fmt.Fprintf(&all, "P(u%d | v%d)\nP(u%d | w%d)\nN(v%d | u%d)\nN(w%d | u%d)\nM(u%d | v%d)\n", i, i, i, i, i, i, i, i, i, i)
		}
		d := parse.MustDatabase(all.String())
		if got := d.Relation("P").NumBlocks(); got != 2000 {
			t.Fatalf("%d P-blocks, want 2000", got)
		}
		ix := d.Interned()
		start := time.Now()
		got := naive.RepairSearch(q, ix)
		took := time.Since(start)
		want := naive.IsCertain(q, parse.MustDatabase(special.String()))
		if got != want || want != (n > 2) {
			t.Fatalf("%d pigeons: search %v, enumeration of the named blocks %v", n, got, want)
		}
		if took > 50*time.Millisecond {
			t.Fatalf("%d pigeons: search took %v, want < 50ms", n, took)
		}
	}
}
