// Package attack implements the attack graph of Section 4: the closure
// sets F^{⊕,q}, attacks between variables F|u ⇝ w with explicit witness
// sequences, attacks between atoms, acyclicity testing, and the search for
// 2-cycles that drives the hardness side of Theorem 4.3.
package attack

import (
	"fmt"
	"sort"
	"strings"

	"cqa/internal/fd"
	"cqa/internal/schema"
)

// Graph is the attack graph of a query: vertices are the atoms of
// q⁺ ∪ q⁻ (identified by relation name, which is unique by
// self-join-freeness), and there is an edge F → G when F attacks G.
type Graph struct {
	q schema.Query
	// order lists relation names in query order.
	order []string
	// atoms maps relation name to its atom.
	atoms map[string]schema.Atom
	// negated marks relation names occurring under negation.
	negated map[string]bool
	// oplus maps relation name F to F^{⊕,q}.
	oplus map[string]schema.VarSet
	// attacked maps relation name F to the set of variables F attacks.
	attacked map[string]schema.VarSet
	// edges maps F to the set of G it attacks.
	edges map[string]map[string]bool
}

// New computes the attack graph of q. The query should be validated first;
// New panics on duplicate relation names.
func New(q schema.Query) *Graph {
	g := &Graph{
		q:        q,
		atoms:    make(map[string]schema.Atom),
		negated:  make(map[string]bool),
		oplus:    make(map[string]schema.VarSet),
		attacked: make(map[string]schema.VarSet),
		edges:    make(map[string]map[string]bool),
	}
	for _, l := range q.Lits {
		if _, dup := g.atoms[l.Atom.Rel]; dup {
			panic(fmt.Sprintf("attack: duplicate relation %s (query not self-join-free)", l.Atom.Rel))
		}
		g.order = append(g.order, l.Atom.Rel)
		g.atoms[l.Atom.Rel] = l.Atom
		g.negated[l.Atom.Rel] = l.Neg
	}

	positive := q.Positive()
	for _, rel := range g.order {
		f := g.atoms[rel]
		// K(q⁺ \ {F}): the dependencies of the non-negated atoms other
		// than F. When F is negated, q⁺ \ {F} = q⁺.
		var rest []schema.Atom
		for _, p := range positive {
			if p.Rel != rel {
				rest = append(rest, p)
			}
		}
		g.oplus[rel] = fd.Closure(fd.FromAtoms(rest), f.KeyVars())
		g.attacked[rel] = g.attackedVars(f, g.oplus[rel])
	}

	for _, from := range g.order {
		g.edges[from] = make(map[string]bool)
		for _, to := range g.order {
			if from == to {
				continue
			}
			// F attacks G when F ⇝ y for some y ∈ key(G).
			if !g.attacked[from].Intersect(g.atoms[to].KeyVars()).Empty() {
				g.edges[from][to] = true
			}
		}
	}
	return g
}

// attackedVars computes {w | F ⇝ w}: the variables reachable from
// vars(F) \ F^{⊕,q} in the co-occurrence graph of q⁺, using only variables
// outside F^{⊕,q}.
func (g *Graph) attackedVars(f schema.Atom, oplus schema.VarSet) schema.VarSet {
	allowed := func(v string) bool { return !oplus.Has(v) }
	reached := make(schema.VarSet)
	var queue []string
	for v := range f.Vars() {
		if allowed(v) && !reached[v] {
			reached[v] = true
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, p := range g.q.Positive() {
			vars := p.Vars()
			if !vars.Has(v) {
				continue
			}
			for w := range vars {
				if allowed(w) && !reached[w] {
					reached[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return reached
}

// Atoms returns the relation names in query order.
func (g *Graph) Atoms() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// Oplus returns F^{⊕,q} for the atom with the given relation name.
func (g *Graph) Oplus(rel string) schema.VarSet { return g.oplus[rel].Copy() }

// AttackedVars returns the set {w ∈ vars(q) | F ⇝ w}.
func (g *Graph) AttackedVars(rel string) schema.VarSet { return g.attacked[rel].Copy() }

// AttacksVar reports F ⇝ w.
func (g *Graph) AttacksVar(rel, w string) bool { return g.attacked[rel].Has(w) }

// Attacks reports whether the edge F → G is present.
func (g *Graph) Attacks(from, to string) bool { return g.edges[from][to] }

// Edges returns all edges in deterministic order.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for _, from := range g.order {
		for _, to := range g.order {
			if g.edges[from][to] {
				out = append(out, [2]string{from, to})
			}
		}
	}
	return out
}

// InDegree returns the number of atoms attacking the given atom.
func (g *Graph) InDegree(rel string) int {
	n := 0
	for _, from := range g.order {
		if g.edges[from][rel] {
			n++
		}
	}
	return n
}

// UnattackedVars returns the variables x ∈ vars(q) such that no atom
// attacks x. By Corollary 6.9 and Proposition 7.2 these are exactly the
// reifiable variables when negation is weakly-guarded.
func (g *Graph) UnattackedVars() schema.VarSet {
	out := g.q.Vars()
	for _, rel := range g.order {
		out = out.Minus(g.attacked[rel])
	}
	return out
}

// IsAcyclic reports whether the attack graph has no directed cycle.
func (g *Graph) IsAcyclic() bool { return g.FindCycle() == nil }

// FindCycle returns a directed cycle as a list of relation names
// (v₀ → v₁ → … → v₀, the closing vertex not repeated), or nil when the
// graph is acyclic.
func (g *Graph) FindCycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	parent := make(map[string]string)
	var cycle []string
	var dfs func(v string) bool
	dfs = func(v string) bool {
		color[v] = gray
		for _, w := range g.order {
			if !g.edges[v][w] {
				continue
			}
			switch color[w] {
			case white:
				parent[w] = v
				if dfs(w) {
					return true
				}
			case gray:
				// Found a cycle w → … → v → w.
				cycle = []string{w}
				for x := v; x != w; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse to get w, …, v in edge order.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[v] = black
		return false
	}
	for _, v := range g.order {
		if color[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}

// TwoCycle returns a pair (F, G) with F → G → F, preferring the pair that
// contains the fewest negated atoms (so the strongest hardness lemma
// applies first: Lemma 5.5 for zero, 5.6 for one, 5.7 for two). It returns
// ok=false when no 2-cycle exists. By Lemma 4.9, a cyclic attack graph of
// a weakly-guarded query always has a 2-cycle.
func (g *Graph) TwoCycle() (f, gg string, ok bool) {
	best := -1
	for _, a := range g.order {
		for _, b := range g.order {
			if a >= b || !g.edges[a][b] || !g.edges[b][a] {
				continue
			}
			n := 0
			if g.negated[a] {
				n++
			}
			if g.negated[b] {
				n++
			}
			if best == -1 || n < best {
				f, gg, best = a, b, n
			}
		}
	}
	return f, gg, best >= 0
}

// NegatedInPair returns how many of the two relation names occur negated
// in the query.
func (g *Graph) NegatedInPair(a, b string) int {
	n := 0
	if g.negated[a] {
		n++
	}
	if g.negated[b] {
		n++
	}
	return n
}

// Witness returns a witness sequence (u₀, …, u_ℓ) for F|u ⇝ w, or nil if
// F|u ̸⇝ w. The sequence starts at u ∈ vars(F) and ends at w, every
// element avoids F^{⊕,q}, and consecutive elements co-occur in a
// non-negated atom.
func (g *Graph) Witness(rel, u, w string) []string {
	f, ok := g.atoms[rel]
	if !ok || !f.Vars().Has(u) {
		return nil
	}
	oplus := g.oplus[rel]
	if oplus.Has(u) || oplus.Has(w) {
		return nil
	}
	if u == w {
		return []string{u}
	}
	parent := map[string]string{u: u}
	queue := []string{u}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, p := range g.q.Positive() {
			vars := p.Vars()
			if !vars.Has(v) {
				continue
			}
			for x := range vars {
				if oplus.Has(x) {
					continue
				}
				if _, seen := parent[x]; seen {
					continue
				}
				parent[x] = v
				if x == w {
					var path []string
					for y := w; ; y = parent[y] {
						path = append(path, y)
						if y == u {
							break
						}
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path
				}
				queue = append(queue, x)
			}
		}
	}
	return nil
}

// ReachFrom returns {w | F|u ⇝ w}: the variables attacked by F starting
// from the particular variable u ∈ vars(F). It is empty when u ∉ vars(F)
// or u ∈ F^{⊕,q}.
func (g *Graph) ReachFrom(rel, u string) schema.VarSet {
	out := make(schema.VarSet)
	f, ok := g.atoms[rel]
	if !ok || !f.Vars().Has(u) {
		return out
	}
	oplus := g.oplus[rel]
	if oplus.Has(u) {
		return out
	}
	out[u] = true
	queue := []string{u}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, p := range g.q.Positive() {
			vars := p.Vars()
			if !vars.Has(v) {
				continue
			}
			for w := range vars {
				if !oplus.Has(w) && !out[w] {
					out[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return out
}

// AttackVarWitness returns a variable u ∈ vars(F) and a witness for
// F|u ⇝ w, or ok=false when F ̸⇝ w.
func (g *Graph) AttackVarWitness(rel, w string) (u string, witness []string, ok bool) {
	if !g.attacked[rel].Has(w) {
		return "", nil, false
	}
	f := g.atoms[rel]
	for _, cand := range f.Vars().Sorted() {
		if wit := g.Witness(rel, cand, w); wit != nil {
			return cand, wit, true
		}
	}
	return "", nil, false
}

// String renders the graph as one line per atom: F -> {G, H}.
func (g *Graph) String() string {
	var b strings.Builder
	for _, from := range g.order {
		var tos []string
		for to := range g.edges[from] {
			if g.edges[from][to] {
				tos = append(tos, to)
			}
		}
		sort.Strings(tos)
		fmt.Fprintf(&b, "%s -> {%s}\n", from, strings.Join(tos, ", "))
	}
	return b.String()
}
