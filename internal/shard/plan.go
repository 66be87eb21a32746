package shard

import "cqa/internal/schema"

// Plan kinds, as reported in explain output.
const (
	// PlanSingle: one shard holds everything.
	PlanSingle = "single"
	// PlanPinned: every atom's key is ground and all the pinned blocks
	// have one owner.
	PlanPinned = "pinned"
	// PlanScatter: every valuation's facts lie on one shard, but which
	// shard depends on the valuation.
	PlanScatter = "scatter"
	// PlanUnion: a true cross-shard join.
	PlanUnion = "union"
)

// Plan is the shard-combine decision for one query: which shards its
// answer can depend on and how their contributions combine. It is the
// only place that decision is made — the in-process engine, its explain
// output, the router's reads and the router's watches all consume it.
//
// Every kind but PlanUnion is a scatter plan: per-shard verdicts
// OR-combine, so only Shards are asked and the first true decides. That
// is licensed exactly when every valuation's facts lie on one shard:
// repairs are products of per-shard repairs, so a falsifying repair on
// every shard unions to a falsifying repair of the database
// (docs/SHARDING.md). A PlanUnion query joins facts across Shards and
// must be evaluated on their merged facts.
type Plan struct {
	Kind string
	// Shards lists the shards consulted, ascending. Read-only: plans for
	// one shard share a slice.
	Shards []int
	// Ground reports that every atom's key is ground, so the answer
	// depends on the pinned blocks alone — Shards are their owners, and a
	// query whose Shards avoid a dead shard stays answerable exactly.
	Ground bool
}

// Scatter reports whether per-shard verdicts OR-combine.
func (p Plan) Scatter() bool { return p.Kind != PlanUnion }

var shardZero = []int{0}

// PlanFor plans q over n shards placed by owner; nil is the default
// placement, Owner. Two shapes scatter:
//
//   - every atom's key is ground and all owners coincide (any placement:
//     the owner is asked where each block is), and
//   - q is co-keyed (schema.Query.CoKey): any valuation gives all atoms,
//     negated ones included, the same key values. Owner does not hash
//     the relation name, so equal keys co-locate; an overriding owner
//     may hash anything, and gets this rule only for a single positive
//     atom, whose facts are one block wherever it lives.
func PlanFor(q schema.Query, n int, owner HashFunc) Plan {
	if n <= 1 {
		return Plan{Kind: PlanSingle, Shards: shardZero}
	}
	_, coKeyed := q.CoKey()
	coKeyed = coKeyed && (owner == nil || (len(q.Lits) == 1 && !q.Lits[0].Neg))
	if owner == nil {
		owner = Owner
	}
	ground := len(q.Lits) > 0
	pinned := make([]bool, n)
	for _, l := range q.Lits {
		if !ground {
			break
		}
		kt := l.Atom.KeyTerms()
		key := make([]string, len(kt))
		for i, t := range kt {
			ground = ground && !t.IsVar
			key[i] = t.Name
		}
		if ground {
			pinned[owner(l.Atom.Rel, key, n)] = true
		}
	}
	var shards []int
	for i := 0; i < n; i++ {
		if pinned[i] || !ground {
			shards = append(shards, i)
		}
	}
	switch {
	case ground && len(shards) == 1:
		return Plan{Kind: PlanPinned, Shards: shards, Ground: true}
	case !ground && coKeyed:
		return Plan{Kind: PlanScatter, Shards: shards}
	}
	return Plan{Kind: PlanUnion, Shards: shards, Ground: ground}
}
