// Package matching implements the classical matching problems that the
// paper connects to CERTAINTY(q): bipartite maximum matching via
// Hopcroft–Karp (for BIPARTITE PERFECT MATCHING, Example 1.1 and
// Lemma 5.2), Hall's marriage condition, and the S-COVERING problem of
// Example 1.2.
package matching

import (
	"slices"
	"strconv"

	"cqa/internal/graphx"
)

// HopcroftKarp computes a maximum matching in a bipartite graph given as
// adjacency lists from nLeft left vertices (0-based) to right vertex
// indexes (0-based, nRight vertices). It returns the matching size and
// the matching itself as matchL (left index → right index or -1). The
// ids are int32 because the planner's graph deciders build adjacency
// directly from interned ids (dense posting indexes).
func HopcroftKarp(nLeft, nRight int, adj [][]int32) (int, []int32) {
	const inf = int32(^uint32(0) >> 1)
	matchL := make([]int32, nLeft)
	matchR := make([]int32, nRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	dist := make([]int32, nLeft)

	bfs := func() bool {
		queue := make([]int32, 0, nLeft)
		for u := int32(0); u < int32(nLeft); u++ {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				w := matchR[v]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		for _, v := range adj[u] {
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	size := 0
	for bfs() {
		for u := int32(0); u < int32(nLeft); u++ {
			if matchL[u] == -1 && dfs(u) {
				size++
			}
		}
	}
	return size, matchL
}

// MaxMatching computes a maximum matching of a named bipartite graph. It
// returns the matching as a map from left vertex to right vertex.
func MaxMatching(b *graphx.Bipartite) map[string]string {
	rIndex := make(map[string]int32, len(b.Right))
	for i, r := range b.Right {
		rIndex[r] = int32(i)
	}
	adj := make([][]int32, len(b.Left))
	for i, l := range b.Left {
		for _, r := range b.Adj[l] {
			adj[i] = append(adj[i], rIndex[r])
		}
		slices.Sort(adj[i])
	}
	_, matchL := HopcroftKarp(len(b.Left), len(b.Right), adj)
	out := make(map[string]string)
	for i, v := range matchL {
		if v >= 0 {
			out[b.Left[i]] = b.Right[v]
		}
	}
	return out
}

// HasPerfectMatching reports whether the bipartite graph has a matching
// that saturates both sides. This requires equally many left and right
// vertices.
func HasPerfectMatching(b *graphx.Bipartite) bool {
	if len(b.Left) != len(b.Right) {
		return false
	}
	return len(MaxMatching(b)) == len(b.Left)
}

// HallCondition reports whether every subset of left vertices has at least
// as many right neighbours (Hall's marriage condition [14]); by Hall's
// theorem this is equivalent to the existence of a left-saturating
// matching, which is how it is computed here.
func HallCondition(b *graphx.Bipartite) bool {
	return len(MaxMatching(b)) == len(b.Left)
}

// SCoveringInstance is an instance of the S-COVERING problem of
// Example 1.2: a set S and a list of (possibly empty) subsets T₁,…,Tₗ.
type SCoveringInstance struct {
	S []string
	T [][]string
}

// Solvable reports whether one can pick at most one element from each Tᵢ
// so that every element of S is picked once — i.e. whether there is an
// injective f : S → {1,…,ℓ} with a ∈ T_{f(a)}. This is a left-saturating
// bipartite matching from S to the subset indexes.
func (inst SCoveringInstance) Solvable() bool {
	right := make([]string, len(inst.T))
	for i := range inst.T {
		right[i] = idxName(i)
	}
	b := graphx.NewBipartite(inst.S, right)
	for i, t := range inst.T {
		for _, a := range t {
			if slices.Contains(inst.S, a) {
				// Ignore duplicate memberships.
				dup := false
				for _, r := range b.Adj[a] {
					if r == idxName(i) {
						dup = true
						break
					}
				}
				if !dup {
					if err := b.AddEdge(a, idxName(i)); err != nil {
						panic(err) // unreachable: endpoints are declared
					}
				}
			}
		}
	}
	return len(MaxMatching(b)) == len(inst.S)
}

func idxName(i int) string {
	return "T" + strconv.Itoa(i+1)
}
