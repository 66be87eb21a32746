// Package core is the public facade of the library: it classifies a query
// according to Theorem 4.3 of Koutris & Wijsen (PODS 2018) and answers
// CERTAINTY(q) with a choice of engines.
//
// For a self-join-free Boolean conjunctive query q with negated atoms and
// weakly-guarded negation:
//
//   - if the attack graph of q is acyclic, CERTAINTY(q) is in FO and
//     Classify returns a consistent first-order rewriting;
//   - if the attack graph is cyclic, CERTAINTY(q) is L-hard or NL-hard
//     (hence not in FO), and Classify reports the 2-cycle witnessing it.
//
// Outside weakly-guarded negation the theorem does not apply; Classify
// still reports "not in FO" when a 2-cycle with at most one negated atom
// exists (Lemmas 5.5 and 5.6 hold unconditionally) and reports
// VerdictOutOfScope otherwise.
//
// For serving, PrepareShape does this work once per query shape — the
// query with its constants lifted to parameters, which the paper's
// constructions never look inside — and a Prepared binds one query's
// constants into it (prepared.go).
package core

import (
	"errors"
	"fmt"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/direct"
	"cqa/internal/fo"
	"cqa/internal/naive"
	"cqa/internal/rewrite"
	"cqa/internal/schema"
)

// Verdict is the FO-membership classification of CERTAINTY(q).
type Verdict string

// Verdicts returned by Classify.
const (
	// VerdictFO: CERTAINTY(q) is in FO; a rewriting is available.
	VerdictFO Verdict = "FO"
	// VerdictNotFO: CERTAINTY(q) is provably not in FO.
	VerdictNotFO Verdict = "not-FO"
	// VerdictOutOfScope: negation is not weakly-guarded and no
	// unconditional hardness lemma applies; Theorem 4.3 is silent.
	VerdictOutOfScope Verdict = "out-of-scope"
)

// Classification is the result of analysing a query.
type Classification struct {
	Query         schema.Query
	Guarded       bool
	WeaklyGuarded bool
	Graph         *attack.Graph
	Acyclic       bool
	Verdict       Verdict

	// Hardness is the lower bound shown for non-FO queries: "L-hard" or
	// "NL-hard" (Lemmas 5.5–5.7).
	Hardness string
	// CycleF ⇄ CycleG is the witnessing attack 2-cycle (non-FO only);
	// CycleNegated counts its negated atoms.
	CycleF, CycleG string
	CycleNegated   int

	// Rewriting is the consistent first-order rewriting (FO only).
	Rewriting fo.Formula
}

// Classify validates q and decides membership of CERTAINTY(q) in FO.
func Classify(q schema.Query) (*Classification, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c := &Classification{
		Query:         q,
		Guarded:       q.Guarded(),
		WeaklyGuarded: q.WeaklyGuarded(),
		Graph:         attack.New(q),
	}
	c.Acyclic = c.Graph.IsAcyclic()

	if c.WeaklyGuarded && c.Acyclic {
		f, err := rewrite.Rewrite(q)
		if err != nil {
			return nil, fmt.Errorf("core: internal: acyclic weakly-guarded query failed to rewrite: %w", err)
		}
		c.Verdict = VerdictFO
		c.Rewriting = f
		return c, nil
	}

	// Look for a 2-cycle. Prefer the strongest applicable bound:
	// a 1-negated 2-cycle gives NL-hardness (Lemma 5.6); 0- and
	// 2-negated cycles give L-hardness (Lemmas 5.5, 5.7). Without weak
	// guards only cycles with ≤ 1 negated atom yield hardness.
	bestNeg := -1
	for _, a := range c.Graph.Atoms() {
		for _, b := range c.Graph.Atoms() {
			if a >= b || !c.Graph.Attacks(a, b) || !c.Graph.Attacks(b, a) {
				continue
			}
			n := c.Graph.NegatedInPair(a, b)
			if !c.WeaklyGuarded && n == 2 {
				continue // Lemma 5.7 requires weak guards (cf. Example 7.1)
			}
			better := bestNeg == -1 || rank(n) > rank(bestNeg)
			if better {
				c.CycleF, c.CycleG, bestNeg = a, b, n
			}
		}
	}
	if bestNeg >= 0 {
		c.Verdict = VerdictNotFO
		c.CycleNegated = bestNeg
		if bestNeg == 1 {
			c.Hardness = "NL-hard"
		} else {
			c.Hardness = "L-hard"
		}
		return c, nil
	}

	// Cyclic (or weak-guard failure) without a usable 2-cycle. For
	// weakly-guarded queries Lemma 4.9 guarantees a 2-cycle, so this
	// point is only reachable when negation is not weakly-guarded.
	c.Verdict = VerdictOutOfScope
	return c, nil
}

// rank orders hardness strength: NL-hard (1 negated atom) beats L-hard.
func rank(negated int) int {
	if negated == 1 {
		return 2
	}
	return 1
}

// ReifiableVars returns the set of reifiable variables of q: variables x
// such that whenever q is certain on a database, some constant c makes
// q[x ↦ c] certain too. For weakly-guarded negation the paper fully
// characterizes this set as the unattacked variables (Corollary 6.9 gives
// sufficiency, Proposition 7.2 necessity). For non-weakly-guarded queries
// the characterization is open — Example 7.1's q4 — so an error is
// returned.
func ReifiableVars(q schema.Query) (schema.VarSet, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.WeaklyGuarded() {
		return nil, errors.New("core: reifiable variables are only characterized for weakly-guarded negation (attacked variables are never reifiable, but the converse is open; cf. Section 7)")
	}
	return attack.New(q).UnattackedVars(), nil
}

// Engine selects how Certain answers CERTAINTY(q).
type Engine int

// Engines supported by Certain.
const (
	// EngineAuto answers as the server does, through the query's
	// prepared shape (Prepare): the compiled rewriting when CERTAINTY(q)
	// is in FO, otherwise the planner's graph decider for the query
	// shape, or search over block choices.
	EngineAuto Engine = iota
	// EngineRewriting compiles the consistent first-order rewriting of
	// the query as written, constants in place, and evaluates it once
	// (fo.Eval), sharing nothing with the query's prepared shape.
	EngineRewriting
	// EngineDirect runs Algorithm 1 on the database.
	EngineDirect
	// EngineNaive enumerates repairs (exponential; ground truth).
	EngineNaive
)

// ErrNoRewriting is returned when EngineRewriting or EngineDirect is
// requested for a query whose CERTAINTY problem is not in FO (or out of
// the theorem's scope).
var ErrNoRewriting = errors.New("core: query has no consistent first-order rewriting")

// Certain reports whether q is true in every repair of d using the chosen
// engine. Relations mentioned by q that the database does not know are
// treated as empty.
func Certain(q schema.Query, d *db.Database, engine Engine) (bool, error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	switch engine {
	case EngineNaive:
		return naive.IsCertain(q, d), nil
	case EngineDirect:
		return direct.IsCertain(q, d)
	case EngineRewriting:
		f, err := rewrite.Rewrite(q)
		if err != nil {
			return false, fmt.Errorf("%w: %v", ErrNoRewriting, err)
		}
		return fo.Eval(d, f), nil
	case EngineAuto:
		p, err := Prepare(q)
		if err != nil {
			return false, err
		}
		return p.Certain(d), nil
	default:
		return false, fmt.Errorf("core: unknown engine %d", engine)
	}
}
