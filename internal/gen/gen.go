// Package gen generates workloads for the test suite and the benchmark
// harness: random typed databases with controlled block structure for a
// given query, random bipartite graphs (BPM), random two-component forests
// (UFA), random S-COVERING instances, and random sjfBCQ¬ queries.
//
// All generators are deterministic functions of the provided *rand.Rand,
// so every experiment is reproducible from its seed.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"cqa/internal/db"
	"cqa/internal/graphx"
	"cqa/internal/matching"
	"cqa/internal/reduction"
	"cqa/internal/schema"
)

// DBOptions controls random database generation for a query.
type DBOptions struct {
	// BlocksPerRelation is the number of blocks generated per relation.
	BlocksPerRelation int
	// MaxBlockSize bounds the facts per block (≥ 1); sizes are uniform
	// in [1, MaxBlockSize].
	MaxBlockSize int
	// DomainPerVariable is the pool size for each variable's type.
	DomainPerVariable int
	// ConstantBias is the probability that a position holding a constant
	// in the query atom receives exactly that constant (making matches
	// possible); the rest draw from a small noise pool.
	ConstantBias float64
}

// DefaultDBOptions are small enough for naive repair enumeration.
func DefaultDBOptions() DBOptions {
	return DBOptions{BlocksPerRelation: 3, MaxBlockSize: 2, DomainPerVariable: 3, ConstantBias: 0.7}
}

// Database generates a random database typed relative to q (Section 3):
// each variable has its own constant pool, and every position of every
// generated fact draws from the pool of the variable at that position in
// the query's atom (or honours the query's constant with probability
// ConstantBias).
func Database(rng *rand.Rand, q schema.Query, opt DBOptions) *db.Database {
	d := db.New()
	pool := func(v string, i int) string {
		return fmt.Sprintf("%s·%d", v, rng.Intn(opt.DomainPerVariable))
	}
	for _, a := range q.Atoms() {
		d.MustDeclare(a.Rel, a.Arity(), a.Key)
		for b := 0; b < opt.BlocksPerRelation; b++ {
			key := make([]string, a.Key)
			for i, t := range a.KeyTerms() {
				key[i] = drawValue(rng, t, pool, opt, i)
			}
			size := 1 + rng.Intn(opt.MaxBlockSize)
			for s := 0; s < size; s++ {
				args := append([]string{}, key...)
				for i, t := range a.NonKeyTerms() {
					args = append(args, drawValue(rng, t, pool, opt, a.Key+i))
				}
				d.MustInsert(db.Fact{Rel: a.Rel, Args: args})
			}
		}
	}
	return d
}

func drawValue(rng *rand.Rand, t schema.Term, pool func(string, int) string, opt DBOptions, i int) string {
	if t.IsVar {
		return pool(t.Name, i)
	}
	if rng.Float64() < opt.ConstantBias {
		return t.Name
	}
	return fmt.Sprintf("noise·%d", rng.Intn(opt.DomainPerVariable))
}

// Bipartite generates a random bipartite graph with n vertices per side
// and edge probability p, then adds one random edge to every isolated
// left vertex so that the Lemma 5.2 reduction applies.
func Bipartite(rng *rand.Rand, n int, p float64) *graphx.Bipartite {
	left := make([]string, n)
	right := make([]string, n)
	for i := 0; i < n; i++ {
		left[i] = fmt.Sprintf("a%d", i)
		right[i] = fmt.Sprintf("b%d", i)
	}
	b := graphx.NewBipartite(left, right)
	for _, l := range left {
		for _, r := range right {
			if rng.Float64() < p {
				mustAddEdge(b, l, r)
			}
		}
	}
	for _, l := range left {
		if len(b.Adj[l]) == 0 {
			mustAddEdge(b, l, right[rng.Intn(n)])
		}
	}
	return b
}

func mustAddEdge(b *graphx.Bipartite, l, r string) {
	if err := b.AddEdge(l, r); err != nil {
		panic(err)
	}
}

// UFA generates a random Undirected Forest Accessibility instance: two
// random trees with the given vertex counts (each ≥ 2), and two query
// nodes that are connected with probability ½.
func UFA(rng *rand.Rand, n1, n2 int) reduction.UFAInstance {
	g := graphx.NewUndirected()
	tree := func(prefix string, n int) []string {
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = fmt.Sprintf("%s%d", prefix, i)
			g.AddVertex(names[i])
			if i > 0 {
				// Random attachment keeps the component a tree.
				if err := g.AddEdge(names[i], names[rng.Intn(i)]); err != nil {
					panic(err)
				}
			}
		}
		return names
	}
	c1 := tree("u", n1)
	c2 := tree("v", n2)
	u := c1[rng.Intn(len(c1))]
	var v string
	if rng.Intn(2) == 0 {
		// Same component (connected), but distinct from u: the
		// reduction needs a path of length ≥ 1.
		for v = c1[rng.Intn(len(c1))]; v == u; v = c1[rng.Intn(len(c1))] {
		}
	} else {
		v = c2[rng.Intn(len(c2))] // other component: not connected
	}
	return reduction.UFAInstance{Graph: g, U: u, V: v}
}

// SCovering generates a random S-COVERING instance with nS elements, nT
// subsets, and membership probability p.
func SCovering(rng *rand.Rand, nS, nT int, p float64) matching.SCoveringInstance {
	s := make([]string, nS)
	for i := range s {
		s[i] = fmt.Sprintf("e%d", i)
	}
	t := make([][]string, nT)
	for i := range t {
		for _, a := range s {
			if rng.Float64() < p {
				t[i] = append(t[i], a)
			}
		}
	}
	return matching.SCoveringInstance{S: s, T: t}
}

// FactsText renders a database listing of about n facts in the text
// syntax (internal/parse), the shape of a served inline database: a third
// each of Lives(p | t), Born(p | t) and Likes(p, t) over n/3 people and 50
// towns, so about two facts in three bring a value the loader has not
// seen. The load-path benchmarks and the allocation gate share it.
func FactsText(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n/3; i++ {
		t := rng.Intn(50)
		fmt.Fprintf(&sb, "Lives(p%d | t%d)\nBorn(p%d | t%d)\nLikes(p%d, t%d)\n", i, t, i, t, i, rng.Intn(50))
	}
	return sb.String()
}
