// Package planner is the meta-engine strategy selector: given one query
// it names the cheapest sound evaluation strategy, and given a database
// snapshot it records why (the decision plus the relation statistics it
// consulted). The engine caches the resulting Plan alongside the prepared
// rewriting and reports the decision through /v1/classify, explain
// output, and the eval_total{strategy=…} metric.
//
// The classification follows the paper's dichotomy (Koutris & Wijsen,
// PODS 2018). CERTAINTY(q) for an acyclic attack graph is FO-rewritable
// and served by the compiled evaluator upstream of this package. On the
// cyclic side the problem is L- or NL-hard — not in FO — but Section 5's
// hardness reductions run backwards too: for the recognized shapes a
// falsifying repair is a bipartite-matching or a graph-orientation
// witness, so the query is decidable in polynomial time instead of by
// exponential repair enumeration. The planner recognizes:
//
//   - the two-atom mutual-negation pattern {P(u|v), ¬N(v|u)} (the paper's
//     q1 up to renaming, Lemma 5.2): served by Hopcroft–Karp bipartite
//     matching over the mutual-fact graph;
//   - the all-key edge pattern {E(x,y), ¬B(k|v), ¬C(k'|v')} with
//     {k,v} = {k',v'} = {x,y} (the paper's q2 up to renaming and
//     orientation, Lemma 5.3's UFA shape): served by union-find
//     reachability — a falsifying repair is a degree-one orientation,
//     which exists iff every connected component has at most as many
//     edges as vertices.
//
// Everything else on the cyclic side (ClassHard) is decided by search: a
// falsifying repair satisfies one clause over block choices per
// embedding of the positive atoms (naive.RepairSearch; the prepared
// query calls it, since the search resolves the query's constants).
// Strategy labels are a function of the query class alone — never of
// the database — so explain output, metrics, and batch evaluation all
// report the same label for the same query; per-database statistics are
// recorded in the Decision, not used to flip strategies.
package planner

import (
	"fmt"

	"cqa/internal/schema"
)

// Class is the planner's query classification.
type Class string

// Classes assigned by New.
const (
	// ClassFO: CERTAINTY(q) is in FO; the compiled rewriting upstream
	// serves it and the planner stands aside.
	ClassFO Class = "fo"
	// ClassMatching: the two-atom mutual-negation pattern; served by
	// bipartite matching.
	ClassMatching Class = "matching"
	// ClassReachability: the all-key edge pattern with two negated
	// simple-key atoms; served by union-find reachability.
	ClassReachability Class = "reachability"
	// ClassHard: cyclic with no specialized decider; served by search
	// over block choices.
	ClassHard Class = "hard"
)

// Strategy labels for the non-FO classes, as carried in explain output
// and the eval_total{strategy=…} metric label. FO strategies
// (compiled-bitmap, compiled) are named by the engine, which knows the
// compiled program.
const (
	StrategyMatching     = "matching"
	StrategyReachability = "reachability"
	StrategySearch       = "repair-search"
)

// Plan is the per-query strategy selection: the class, the strategy
// label the engine will report and execute for non-FO queries, the
// justification, and the pattern bindings the deciders need. A Plan is
// immutable after New and safe for unbounded concurrent use.
type Plan struct {
	Class Class
	// Strategy is the db-independent strategy label for non-FO classes
	// ("matching", "reachability", "repair-search"); empty for ClassFO.
	Strategy string
	// Reason justifies the classification in one sentence.
	Reason string

	// rels lists the relations whose statistics Decide snapshots:
	// positive atom first for the pattern classes, query order otherwise.
	rels []string
	// pos is the positive atom's relation; negs the negated atoms'
	// relations (negs[1] is set only for ClassReachability).
	pos  string
	negs [2]string
	// negKeyPos maps each negated atom of the reachability pattern to the
	// position (0 or 1) of the positive atom's term that is its key.
	negKeyPos [2]int
}

// New classifies q and returns its plan. inFO reports whether the
// upstream classification found CERTAINTY(q) to be FO-rewritable — the
// pattern shapes below are decided by their attack graph like any other
// query, so an FO-rewritable instance of a shape keeps the FO path.
// q must be validated (schema.Query.Validate).
func New(q schema.Query, inFO bool) *Plan {
	if inFO {
		return &Plan{
			Class:  ClassFO,
			Reason: "acyclic attack graph: CERTAINTY(q) has a consistent first-order rewriting",
			rels:   queryRels(q),
		}
	}
	if p := recognizeMatching(q); p != nil {
		return p
	}
	if p := recognizeReachability(q); p != nil {
		return p
	}
	return &Plan{
		Class:    ClassHard,
		Strategy: StrategySearch,
		Reason:   "cyclic attack graph with no recognized graph-decider shape: a falsifying repair is a choice of one fact per block that kills every embedding, found by DPLL over the blocks the embeddings touch",
		rels:     queryRels(q),
	}
}

// recognizeMatching matches {P(u|v), ¬N(v|u)} with u ≠ v: two binary
// simple-key atoms over distinct variables, the negated atom's key being
// the positive atom's value and vice versa (the paper's q1 up to
// renaming).
func recognizeMatching(q schema.Query) *Plan {
	if len(q.Lits) != 2 {
		return nil
	}
	pos, negs := q.Positive(), q.Negated()
	if len(pos) != 1 || len(negs) != 1 {
		return nil
	}
	p, n := pos[0], negs[0]
	if !binarySimpleKeyVars(p) || !binarySimpleKeyVars(n) {
		return nil
	}
	if n.Terms[0].Name != p.Terms[1].Name || n.Terms[1].Name != p.Terms[0].Name {
		return nil
	}
	return &Plan{
		Class:    ClassMatching,
		Strategy: StrategyMatching,
		Reason: fmt.Sprintf("mutual-negation pattern {%s(u|v), ¬%s(v|u)}: a falsifying repair is a left-saturating matching of %s-blocks into mutual facts (Hopcroft–Karp)",
			p.Rel, n.Rel, p.Rel),
		rels: []string{p.Rel, n.Rel},
		pos:  p.Rel,
		negs: [2]string{n.Rel, ""},
	}
}

// recognizeReachability matches {E(x,y), ¬B(k|v), ¬C(k'|v')} where E is
// all-key over distinct variables x ≠ y and each negated atom is binary
// simple-key with {key, value} = {x, y}, key ≠ value — the paper's q2 up
// to renaming and per-atom orientation.
func recognizeReachability(q schema.Query) *Plan {
	if len(q.Lits) != 3 {
		return nil
	}
	pos, negs := q.Positive(), q.Negated()
	if len(pos) != 1 || len(negs) != 2 {
		return nil
	}
	e := pos[0]
	if e.Arity() != 2 || !e.AllKey() {
		return nil
	}
	x, y := e.Terms[0], e.Terms[1]
	if !x.IsVar || !y.IsVar || x.Name == y.Name {
		return nil
	}
	plan := &Plan{
		Class:    ClassReachability,
		Strategy: StrategyReachability,
		rels:     []string{e.Rel},
		pos:      e.Rel,
	}
	for i, n := range negs {
		if !binarySimpleKeyVars(n) {
			return nil
		}
		switch {
		case n.Terms[0].Name == x.Name && n.Terms[1].Name == y.Name:
			plan.negKeyPos[i] = 0
		case n.Terms[0].Name == y.Name && n.Terms[1].Name == x.Name:
			plan.negKeyPos[i] = 1
		default:
			return nil
		}
		plan.negs[i] = n.Rel
		plan.rels = append(plan.rels, n.Rel)
	}
	plan.Reason = fmt.Sprintf("all-key edge pattern {%s(x,y), ¬%s, ¬%s}: a falsifying repair assigns each %s-edge to one covering block, which exists iff no component has more edges than vertices (union-find)",
		e.Rel, plan.negs[0], plan.negs[1], e.Rel)
	return plan
}

// binarySimpleKeyVars reports whether a is a binary simple-key atom over
// two distinct variables.
func binarySimpleKeyVars(a schema.Atom) bool {
	return a.Arity() == 2 && a.Key == 1 &&
		a.Terms[0].IsVar && a.Terms[1].IsVar &&
		a.Terms[0].Name != a.Terms[1].Name
}

func queryRels(q schema.Query) []string {
	atoms := q.Atoms()
	rels := make([]string, len(atoms))
	for i, a := range atoms {
		rels[i] = a.Rel
	}
	return rels
}
