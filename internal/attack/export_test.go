package attack

import "cqa/internal/schema"

// Query returns the query the graph was built from.
func (g *Graph) Query() schema.Query { return g.q }

// Unattacked returns the relation names with in-degree 0, in query order.
func (g *Graph) Unattacked() []string {
	var out []string
	for _, rel := range g.order {
		if g.InDegree(rel) == 0 {
			out = append(out, rel)
		}
	}
	return out
}
