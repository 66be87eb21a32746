// Package reduction implements, as executable database transformations,
// the first-order reductions the paper uses to prove hardness and to
// eliminate disequalities:
//
//   - BIPARTITE PERFECT MATCHING → co-CERTAINTY(q1)      (Lemma 5.2)
//   - UFA (undirected forest accessibility) → CERTAINTY(q2) (Lemma 5.3)
//   - S-COVERING → co-CERTAINTY(q_Hall)                  (Examples 1.2, 6.12)
//   - CERTAINTY(q') → CERTAINTY(q) for q' ⊆ q with q⁺ ⊆ q' (Lemma 5.4)
//   - the generic Θ^a_b reductions for attack 2-cycles with one
//     (Lemma 5.6) or two (Lemma 5.7) negated atoms
//   - disequality elimination via a fresh all-key relation (Lemma 6.6)
//
// Each reduction is a pure function from an instance of the source problem
// to a database (and query) of the target problem; the test suite verifies
// answer preservation against the naive certainty engine.
package reduction

import (
	"fmt"

	"cqa/internal/db"
	"cqa/internal/graphx"
	"cqa/internal/matching"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

// Q1 returns q1 = {R(x|y), ¬S(y|x)} (Example 1.1).
func Q1() schema.Query { return parse.MustQuery("R(x | y), !S(y | x)") }

// Q2 returns q2 = {R(x,y), ¬S(x|y), ¬T(y|x)} (Section 5.1), the canonical
// query whose attack 2-cycle consists of two negated atoms. The positive
// atom R is all-key: that is what puts the 2-cycle S ⇄ T between the two
// negated atoms (with a simple key on R the cycle would involve R itself,
// contradicting the paper's "zero, one, and two negated atoms" narrative
// and breaking the Lemma 5.7 reduction).
func Q2() schema.Query { return parse.MustQuery("R(x, y), !S(x | y), !T(y | x)") }

// QHall returns q_Hall = {S(x), ¬N1(c|x), …, ¬Nℓ(c|x)} (Example 1.2).
func QHall(l int) schema.Query {
	lits := []schema.Literal{schema.Pos(schema.NewAtom("S", 1, schema.Var("x")))}
	for i := 1; i <= l; i++ {
		lits = append(lits, schema.Neg(schema.NewAtom(
			fmt.Sprintf("N%d", i), 1, schema.Const("c"), schema.Var("x"))))
	}
	return schema.NewQuery(lits...)
}

// BPMToQ1 builds the Lemma 5.2 database for a bipartite graph: for every
// edge {a, b} it contains R(a|b) and S(b|a). Provided the graph has
// equally many left and right vertices and no isolated left vertex, the
// graph has a perfect matching iff some repair falsifies q1, i.e. iff
// CERTAINTY(q1) answers false.
func BPMToQ1(g *graphx.Bipartite) (*db.Database, error) {
	if len(g.Left) != len(g.Right) {
		return nil, fmt.Errorf("reduction: sides have %d and %d vertices; the Lemma 5.2 equivalence needs equal sides",
			len(g.Left), len(g.Right))
	}
	for _, l := range g.Left {
		if len(g.Adj[l]) == 0 {
			return nil, fmt.Errorf("reduction: left vertex %s is isolated; the Lemma 5.2 equivalence needs every left vertex to have an edge", l)
		}
	}
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	for _, e := range g.Edges() {
		d.MustInsert(db.F("R", e[0], e[1]))
		d.MustInsert(db.F("S", e[1], e[0]))
	}
	return d, nil
}

// UFAInstance is an instance of Undirected Forest Accessibility: an
// acyclic undirected graph with exactly two connected components, each
// containing at least one edge, and two nodes U and V. The question is
// whether U and V are connected.
type UFAInstance struct {
	Graph *graphx.Undirected
	U, V  string
}

// Validate checks the structural preconditions of Lemma 5.3.
func (inst UFAInstance) Validate() error {
	if inst.U == inst.V {
		return fmt.Errorf("reduction: UFA nodes must be distinct (the reduction encodes a path of length ≥ 1)")
	}
	if !inst.Graph.IsForest() {
		return fmt.Errorf("reduction: UFA graph has a cycle")
	}
	comps := inst.Graph.Components()
	if len(comps) != 2 {
		return fmt.Errorf("reduction: UFA graph has %d components, want 2", len(comps))
	}
	for _, c := range comps {
		if len(c) < 2 {
			return fmt.Errorf("reduction: UFA component %v has no edge", c)
		}
	}
	for _, v := range []string{inst.U, inst.V} {
		found := false
		for _, w := range inst.Graph.Vertices() {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("reduction: UFA node %s not in graph", v)
		}
	}
	return nil
}

// UFAToQ2 builds the Lemma 5.3 database: for every edge {a, b} the
// database contains R(a|e), R(b|e), S(a|e), S(b|e), T(e|a), T(e|b) where
// e is the edge constant "{a,b}", plus R(u|t), R(v|t), S(u|t), S(v|t) for
// a fresh constant t. U and V are connected in the forest iff every repair
// satisfies q2.
func UFAToQ2(inst UFAInstance) (*db.Database, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	d := db.New()
	d.MustDeclare("R", 2, 2) // all-key, matching Q2
	d.MustDeclare("S", 2, 1)
	d.MustDeclare("T", 2, 1)
	for _, e := range inst.Graph.Edges() {
		ec := e.String()
		d.MustInsert(db.F("R", e.U, ec))
		d.MustInsert(db.F("R", e.V, ec))
		d.MustInsert(db.F("S", e.U, ec))
		d.MustInsert(db.F("S", e.V, ec))
		d.MustInsert(db.F("T", ec, e.U))
		d.MustInsert(db.F("T", ec, e.V))
	}
	const fresh = "t·fresh"
	d.MustInsert(db.F("R", inst.U, fresh))
	d.MustInsert(db.F("R", inst.V, fresh))
	d.MustInsert(db.F("S", inst.U, fresh))
	d.MustInsert(db.F("S", inst.V, fresh))
	return d, nil
}

// SCoveringToQHall builds the Example 1.2 database: S(a) for a ∈ S and
// Nᵢ(c|a) for a ∈ Tᵢ. The instance is solvable iff some repair falsifies
// q_Hall, i.e. iff CERTAINTY(q_Hall) answers false. Use QHall(len(inst.T))
// as the query.
func SCoveringToQHall(inst matching.SCoveringInstance) *db.Database {
	d := db.New()
	d.MustDeclare("S", 1, 1)
	for i := range inst.T {
		d.MustDeclare(fmt.Sprintf("N%d", i+1), 2, 1)
	}
	for _, a := range inst.S {
		d.MustInsert(db.F("S", a))
	}
	for i, t := range inst.T {
		for _, a := range t {
			d.MustInsert(db.F(fmt.Sprintf("N%d", i+1), "c", a))
		}
	}
	return d
}

// DropNegated implements Lemma 5.4: given q' ⊆ q with q⁺ ⊆ q' and a
// database for CERTAINTY(q'), it produces the database for CERTAINTY(q)
// obtained by deleting all N-facts for every ¬N ∈ q \ q' (and declaring
// the extra relations empty). Every repair of db satisfies q' iff every
// repair of the result satisfies q.
func DropNegated(q, qPrime schema.Query, d *db.Database) (*db.Database, error) {
	inQPrime := make(map[string]bool)
	for _, a := range qPrime.Atoms() {
		inQPrime[a.Rel] = true
	}
	out := db.New()
	for _, a := range q.Atoms() {
		if err := out.DeclareRelation(a.Rel, a.Arity(), a.Key); err != nil {
			return nil, err
		}
		if !inQPrime[a.Rel] {
			if !q.IsNegated(a.Rel) {
				return nil, fmt.Errorf("reduction: atom %s of q is positive but missing from q'", a.Rel)
			}
			continue // leave the extra negated relation empty
		}
		for _, f := range d.Facts(a.Rel) {
			if err := out.Insert(f); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// EncodeDiseq implements Lemma 6.6: it removes one disequality v⃗ ≠ c⃗
// from the extended query, replacing it by ¬E(v⃗) for a fresh all-key
// relation E, and adds the fact E(c⃗) to the database. The right-hand side
// of the disequality must be ground.
func EncodeDiseq(e schema.ExtQuery, i int, d *db.Database, eRel string) (schema.ExtQuery, *db.Database, error) {
	if i < 0 || i >= len(e.Diseqs) {
		return schema.ExtQuery{}, nil, fmt.Errorf("reduction: disequality index %d out of range", i)
	}
	dq := e.Diseqs[i]
	args := make([]string, len(dq.Right))
	terms := make([]schema.Term, len(dq.Left))
	for j := range dq.Right {
		if dq.Right[j].IsVar {
			return schema.ExtQuery{}, nil, fmt.Errorf("reduction: disequality %s has non-ground right side", dq)
		}
		args[j] = dq.Right[j].Name
		terms[j] = dq.Left[j]
	}
	if _, exists := e.AtomByRel(eRel); exists {
		return schema.ExtQuery{}, nil, fmt.Errorf("reduction: relation %s already occurs in the query", eRel)
	}
	newQ := e.Query.Clone()
	newQ.Lits = append(newQ.Lits, schema.Neg(schema.NewAtom(eRel, len(terms), terms...)))
	var rest []schema.Diseq
	rest = append(rest, e.Diseqs[:i]...)
	rest = append(rest, e.Diseqs[i+1:]...)

	out := d.Clone()
	if err := out.DeclareRelation(eRel, len(args), len(args)); err != nil {
		return schema.ExtQuery{}, nil, err
	}
	if err := out.Insert(db.Fact{Rel: eRel, Args: args}); err != nil {
		return schema.ExtQuery{}, nil, err
	}
	return schema.ExtQuery{Query: newQ, Diseqs: rest}, out, nil
}
