package planner

import (
	"cqa/internal/db"
	"cqa/internal/graphx"
	"cqa/internal/matching"
)

// This file holds the polynomial-time deciders for the cyclic pattern
// classes. Both run directly on the interned snapshot — int32 ids, hash
// probes, binary searches into posting lists — so a decision allocates
// only the adjacency / counter slices it needs and never touches the
// mutable database or the string dictionary.

// Certain answers CERTAINTY(q) on the interned snapshot with the plan's
// specialized decider. ok is false when the plan has none (ClassFO,
// ClassHard) and the caller must evaluate by other means. Relations the
// snapshot does not declare are treated as empty, matching the engine's
// convention everywhere else.
func (p *Plan) Certain(ix *db.Interned) (certain, ok bool) {
	switch p.Class {
	case ClassMatching:
		return p.certainMatching(ix), true
	case ClassReachability:
		return p.certainReachability(ix), true
	}
	return false, false
}

// certainMatching decides the mutual-negation pattern {P(u|v), ¬N(v|u)}.
//
// A repair falsifies q iff every chosen P-fact P(a,b) has N(b,a) chosen
// too. The N-block of b can serve only one a, so a falsifying repair is
// exactly a system of distinct representatives: an injective a ↦ b_a over
// the P-block keys with P(a,b_a) ∈ db and N(b_a,a) ∈ db. Such a system
// exists iff the mutual graph {(a,b) : P(a,b) ∈ db ∧ N(b,a) ∈ db} has a
// matching saturating every P-block key; CERTAINTY(q) is its negation.
// O(E·√V) via Hopcroft–Karp.
func (p *Plan) certainMatching(ix *db.Interned) bool {
	pr := ix.Relation(p.pos)
	if pr == nil || pr.Rows() == 0 {
		// The unique repair of an empty P falsifies the positive atom.
		return false
	}
	nr := ix.Relation(p.negs[0])
	left := pr.Posting(0)  // P-block keys
	right := pr.Posting(1) // superset of the mutual partners
	adj := make([][]int32, len(left))
	if nr != nil && nr.Rows() > 0 {
		var probe [2]int32
		for i := 0; i < pr.Rows(); i++ {
			row := pr.Row(i)
			probe[0], probe[1] = row[1], row[0]
			if nr.Has(probe[:]) {
				// Interned rows are distinct facts, so (a, b) pairs — and
				// hence edges — are distinct without any dedup set.
				l := idIndex(left, row[0])
				adj[l] = append(adj[l], idIndex(right, row[1]))
			}
		}
	}
	size, _ := matching.HopcroftKarp(len(left), len(right), adj)
	return size < len(left)
}

// certainReachability decides the all-key edge pattern
// {E(x,y), ¬B(k|v), ¬C(k'|v')}.
//
// E is all-key, so every E-fact is in every repair. A repair falsifies q
// iff every E-edge (a,b) is "covered": the B-block keyed by the edge's
// B-key endpoint chose the fact matching the edge, or the C-block
// likewise. A block's single choice covers at most one edge, so a
// falsifying repair is an assignment of each edge to one of its ≤ 2
// eligible blocks (eligible = the covering fact exists in db) with block
// capacity one — a degree-one orientation of the multigraph whose
// vertices are blocks, whose two-eligible edges connect them, and whose
// one-eligible edges are self-loops. Such an orientation exists iff
// every connected component has at most as many edges as vertices (every
// component of a pseudoforest orients; a component with |E| > |V| cannot).
// An edge with no eligible block survives every repair, so q is certain
// immediately. Near-linear time via union-find with per-root edge
// counters.
func (p *Plan) certainReachability(ix *db.Interned) bool {
	er := ix.Relation(p.pos)
	if er == nil || er.Rows() == 0 {
		return false
	}
	br := ix.Relation(p.negs[0])
	cr := ix.Relation(p.negs[1])
	var bKeys, cKeys []int32
	if br != nil {
		bKeys = br.Posting(0)
	}
	if cr != nil {
		cKeys = cr.Posting(0)
	}
	nB := int32(len(bKeys))
	n := int(nB) + len(cKeys)
	uf := graphx.NewIntUnionFind(n)
	edges := make([]int32, n) // per-root edge count, valid at roots
	var probe [2]int32
	for i := 0; i < er.Rows(); i++ {
		row := er.Row(i)
		okB, vB := false, int32(0)
		if br != nil {
			probe[0] = row[p.negKeyPos[0]]
			probe[1] = row[1-p.negKeyPos[0]]
			if br.Has(probe[:]) {
				okB = true
				vB = idIndex(bKeys, probe[0])
			}
		}
		okC, vC := false, int32(0)
		if cr != nil {
			probe[0] = row[p.negKeyPos[1]]
			probe[1] = row[1-p.negKeyPos[1]]
			if cr.Has(probe[:]) {
				okC = true
				vC = nB + idIndex(cKeys, probe[0])
			}
		}
		switch {
		case !okB && !okC:
			// Uncoverable edge: no repair falsifies q.
			return true
		case okB && okC:
			rB, rC := uf.Find(vB), uf.Find(vC)
			if rB != rC {
				if uf.Union(rB, rC) == rB {
					edges[rB] += edges[rC]
				} else {
					edges[rC] += edges[rB]
				}
			}
			edges[uf.Find(vB)]++
		case okB:
			edges[uf.Find(vB)]++
		default:
			edges[uf.Find(vC)]++
		}
	}
	for v := int32(0); v < int32(n); v++ {
		// Once a component has more edges than vertices it keeps the
		// excess through every later union, so checking roots at the end
		// is exact.
		if uf.Find(v) == v && edges[v] > uf.Size(v) {
			return true
		}
	}
	return false
}

// idIndex returns the position of id in the sorted posting list p. The
// caller guarantees membership (ids probed here come from facts of the
// same relation), so no found flag is needed.
func idIndex(p []int32, id int32) int32 {
	lo, hi := int32(0), int32(len(p))
	for lo < hi {
		mid := (lo + hi) / 2
		if p[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
