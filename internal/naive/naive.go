// Package naive holds two deciders of CERTAINTY(q). The oracle,
// IsCertain, is the executable ground truth: it enumerates the repairs of
// the database (Definition in Section 3) and evaluates the query on each
// by backtracking join; every other certainty engine in this repository
// is validated against it. The search, RepairSearch (search.go), serves
// the cyclic queries no graph decider of the planner recognizes: it
// decides the same question as satisfiability of one clause over block
// choices per embedding, on the interned view, and is validated against
// the oracle.
package naive

import (
	"sort"

	"cqa/internal/db"
	"cqa/internal/schema"
)

// Sat reports whether the database satisfies the extended query
// q ∪ C ∈ sjfBCQ¬≠: there is a valuation θ over vars(q) with θ(P) ∈ db for
// every positive P, θ(N) ∉ db for every negated N, and every disequality
// violated in at least one coordinate.
func Sat(e schema.ExtQuery, d *db.Database) bool {
	pos := e.Positive()
	// Order positive atoms by extension size for cheaper backtracking.
	sort.SliceStable(pos, func(i, j int) bool {
		ri, rj := d.Relation(pos[i].Rel), d.Relation(pos[j].Rel)
		si, sj := 0, 0
		if ri != nil {
			si = ri.Size()
		}
		if rj != nil {
			sj = rj.Size()
		}
		return si < sj
	})
	env := make(map[string]string)
	return match(pos, 0, env, e, d)
}

// SatQuery reports whether the database satisfies a plain query.
func SatQuery(q schema.Query, d *db.Database) bool { return Sat(schema.Ext(q), d) }

func match(pos []schema.Atom, i int, env map[string]string, e schema.ExtQuery, d *db.Database) bool {
	if i == len(pos) {
		return checkNegAndDiseq(env, e, d)
	}
	a := pos[i]
	for _, f := range d.Facts(a.Rel) {
		bound := bindAtom(a, f, env)
		if bound == nil {
			continue
		}
		if match(pos, i+1, env, e, d) {
			unbind(env, bound)
			return true
		}
		unbind(env, bound)
	}
	return false
}

// bindAtom tries to unify atom a with fact f under env. On success it
// returns the list of newly bound variables (to undo later); on mismatch
// it returns nil having already undone any partial bindings.
func bindAtom(a schema.Atom, f db.Fact, env map[string]string) []string {
	var bound []string
	for i, t := range a.Terms {
		v := f.Args[i]
		if !t.IsVar {
			if t.Name != v {
				unbind(env, bound)
				return nil
			}
			continue
		}
		if cur, ok := env[t.Name]; ok {
			if cur != v {
				unbind(env, bound)
				return nil
			}
			continue
		}
		env[t.Name] = v
		bound = append(bound, t.Name)
	}
	if bound == nil {
		bound = []string{}
	}
	return bound
}

func unbind(env map[string]string, names []string) {
	for _, n := range names {
		delete(env, n)
	}
}

func checkNegAndDiseq(env map[string]string, e schema.ExtQuery, d *db.Database) bool {
	for _, n := range e.Negated() {
		args := make([]string, len(n.Terms))
		for i, t := range n.Terms {
			if t.IsVar {
				v, ok := env[t.Name]
				if !ok {
					// Unsafe variable; treat as non-match. Validated
					// queries never reach this.
					return false
				}
				args[i] = v
			} else {
				args[i] = t.Name
			}
		}
		if d.Has(db.Fact{Rel: n.Rel, Args: args}) {
			return false
		}
	}
	for _, dq := range e.Diseqs {
		if !diseqHolds(dq, env) {
			return false
		}
	}
	return true
}

func diseqHolds(dq schema.Diseq, env map[string]string) bool {
	ground := func(t schema.Term) (string, bool) {
		if !t.IsVar {
			return t.Name, true
		}
		v, ok := env[t.Name]
		return v, ok
	}
	for i := range dq.Left {
		l, okL := ground(dq.Left[i])
		r, okR := ground(dq.Right[i])
		if !okL || !okR {
			// An unbound side cannot witness disequality; skip the
			// coordinate. Validated rewriting state never reaches this.
			continue
		}
		if l != r {
			return true
		}
	}
	return false
}

// IsCertain reports whether q is true in every repair of d, by direct
// enumeration of the repairs restricted to the relations q mentions
// (repairs of other relations cannot affect q). It stops at the first
// falsifying repair.
func IsCertain(q schema.Query, d *db.Database) bool {
	return IsCertainExt(schema.Ext(q), d)
}

// IsCertainExt is IsCertain for extended queries with disequalities.
func IsCertainExt(e schema.ExtQuery, d *db.Database) bool {
	rels := make([]string, 0, len(e.Lits))
	for _, a := range e.Atoms() {
		rels = append(rels, a.Rel)
	}
	certain := true
	d.Repairs(rels, func(r *db.Database) bool {
		if !Sat(e, r) {
			certain = false
			return false
		}
		return true
	})
	return certain
}

// FalsifyingRepair returns a repair that falsifies q, or nil when q is
// certain. The returned database is an independent copy.
func FalsifyingRepair(q schema.Query, d *db.Database) *db.Database {
	rels := make([]string, 0, len(q.Lits))
	for _, a := range q.Atoms() {
		rels = append(rels, a.Rel)
	}
	var out *db.Database
	d.Repairs(rels, func(r *db.Database) bool {
		if !SatQuery(q, r) {
			out = r.Clone()
			return false
		}
		return true
	})
	return out
}
