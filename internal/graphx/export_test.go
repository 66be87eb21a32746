package graphx

// HasEdge reports whether {u, v} is an edge.
func (g *Undirected) HasEdge(u, v string) bool { return g.edges[Edge{U: u, V: v}.Canon()] }

// Len returns the size of the underlying element range.
func (u *IntUnionFind) Len() int { return len(u.parent) }
