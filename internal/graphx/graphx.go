// Package graphx provides the small graph utilities the reductions need:
// undirected graphs with string vertices, union-find connectivity, forest
// checking, and bipartite graphs (the input of BIPARTITE PERFECT MATCHING
// and of the Lemma 5.2 reduction).
package graphx

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between two named vertices.
type Edge struct{ U, V string }

// Canon returns the edge with endpoints in lexicographic order, so that
// {a, b} and {b, a} compare equal.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// String renders the edge as {u,v} in canonical order.
func (e Edge) String() string {
	c := e.Canon()
	return "{" + c.U + "," + c.V + "}"
}

// Undirected is a simple undirected graph.
type Undirected struct {
	vertices map[string]bool
	adj      map[string][]string
	edges    map[Edge]bool
}

// NewUndirected returns an empty graph.
func NewUndirected() *Undirected {
	return &Undirected{
		vertices: make(map[string]bool),
		adj:      make(map[string][]string),
		edges:    make(map[Edge]bool),
	}
}

// AddVertex ensures the vertex exists.
func (g *Undirected) AddVertex(v string) { g.vertices[v] = true }

// AddEdge inserts an undirected edge, adding endpoints as needed.
// Self-loops and duplicate edges are rejected with an error.
func (g *Undirected) AddEdge(u, v string) error {
	if u == v {
		return fmt.Errorf("graphx: self-loop at %s", u)
	}
	e := Edge{U: u, V: v}.Canon()
	if g.edges[e] {
		return fmt.Errorf("graphx: duplicate edge %s", e)
	}
	g.edges[e] = true
	g.AddVertex(u)
	g.AddVertex(v)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// Vertices returns the vertices in sorted order.
func (g *Undirected) Vertices() []string {
	out := make([]string, 0, len(g.vertices))
	for v := range g.vertices {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Edges returns the edges in canonical sorted order.
func (g *Undirected) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// NumVertices returns the number of vertices.
func (g *Undirected) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges.
func (g *Undirected) NumEdges() int { return len(g.edges) }

// Connected reports whether u and v are in the same component. A vertex is
// connected to itself.
func (g *Undirected) Connected(u, v string) bool {
	if u == v {
		return g.vertices[u]
	}
	if !g.vertices[u] || !g.vertices[v] {
		return false
	}
	uf := NewUnionFind()
	for e := range g.edges {
		uf.Union(e.U, e.V)
	}
	return uf.Find(u) == uf.Find(v)
}

// Components returns the connected components as sorted vertex slices,
// ordered by their smallest vertex.
func (g *Undirected) Components() [][]string {
	uf := NewUnionFind()
	for v := range g.vertices {
		uf.Find(v)
	}
	for e := range g.edges {
		uf.Union(e.U, e.V)
	}
	groups := make(map[string][]string)
	for v := range g.vertices {
		root := uf.Find(v)
		groups[root] = append(groups[root], v)
	}
	out := make([][]string, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// IsForest reports whether the graph is acyclic.
func (g *Undirected) IsForest() bool {
	// A graph is a forest iff |E| = |V| - #components.
	return g.NumEdges() == g.NumVertices()-len(g.Components())
}

// PathBetween returns the unique path between u and v in a forest (as a
// vertex sequence including both endpoints), or nil if they are not
// connected. Behaviour is undefined on graphs with cycles.
func (g *Undirected) PathBetween(u, v string) []string {
	if !g.vertices[u] || !g.vertices[v] {
		return nil
	}
	if u == v {
		return []string{u}
	}
	parent := map[string]string{u: u}
	queue := []string{u}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[cur] {
			if _, seen := parent[nb]; seen {
				continue
			}
			parent[nb] = cur
			if nb == v {
				var path []string
				for w := v; ; w = parent[w] {
					path = append(path, w)
					if w == u {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

// UnionFind is a disjoint-set structure over string elements with path
// compression and union by size.
type UnionFind struct {
	parent map[string]string
	size   map[string]int
}

// NewUnionFind returns an empty structure.
func NewUnionFind() *UnionFind {
	return &UnionFind{parent: make(map[string]string), size: make(map[string]int)}
}

// Find returns the representative of x, creating the singleton set if x is
// new.
func (u *UnionFind) Find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		u.size[x] = 1
		return x
	}
	if p == x {
		return x
	}
	root := u.Find(p)
	u.parent[x] = root
	return root
}

// Union merges the sets of a and b and reports whether they were distinct.
func (u *UnionFind) Union(a, b string) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// IntUnionFind is a disjoint-set structure over the dense integer range
// [0, n) with union by size and path halving. It is the allocation-light
// counterpart of UnionFind for graph deciders that work on interned int32
// ids: two slices, no per-element map entries, no recursion.
type IntUnionFind struct {
	parent []int32
	size   []int32
}

// NewIntUnionFind returns n singleton sets {0}, …, {n-1}.
func NewIntUnionFind(n int) *IntUnionFind {
	u := &IntUnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Find returns the representative of x, halving the path on the way up.
func (u *IntUnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b and returns the surviving root. When
// the sets were already equal it returns that common root unchanged.
// Callers that maintain per-root aggregates can fold the absorbed root's
// value into the returned one.
func (u *IntUnionFind) Union(a, b int32) int32 {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return ra
}

// Size returns the number of elements in x's set.
func (u *IntUnionFind) Size(x int32) int32 { return u.size[u.Find(x)] }

// Bipartite is a bipartite graph with named left and right vertices.
type Bipartite struct {
	Left, Right []string
	// Adj maps a left vertex to its right neighbours.
	Adj map[string][]string
}

// NewBipartite builds a bipartite graph over the given vertex sets.
func NewBipartite(left, right []string) *Bipartite {
	l := make([]string, len(left))
	copy(l, left)
	r := make([]string, len(right))
	copy(r, right)
	sort.Strings(l)
	sort.Strings(r)
	return &Bipartite{Left: l, Right: r, Adj: make(map[string][]string)}
}

// AddEdge inserts the edge (l, r). Endpoints must already be declared.
func (b *Bipartite) AddEdge(l, r string) error {
	if !contains(b.Left, l) {
		return fmt.Errorf("graphx: unknown left vertex %s", l)
	}
	if !contains(b.Right, r) {
		return fmt.Errorf("graphx: unknown right vertex %s", r)
	}
	for _, x := range b.Adj[l] {
		if x == r {
			return fmt.Errorf("graphx: duplicate edge (%s, %s)", l, r)
		}
	}
	b.Adj[l] = append(b.Adj[l], r)
	return nil
}

// Edges returns all (left, right) pairs in sorted order.
func (b *Bipartite) Edges() [][2]string {
	var out [][2]string
	for _, l := range b.Left {
		rs := make([]string, len(b.Adj[l]))
		copy(rs, b.Adj[l])
		sort.Strings(rs)
		for _, r := range rs {
			out = append(out, [2]string{l, r})
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
