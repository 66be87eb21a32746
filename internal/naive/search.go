package naive

import (
	"cqa/internal/db"
	"cqa/internal/graphx"
	"cqa/internal/schema"
)

// This file decides CERTAINTY(q) by search over block choices instead of
// repair enumeration. A repair chooses one fact per block (Section 3),
// and it falsifies q exactly when its choices kill every embedding θ of
// q⁺, the positive atoms, into the database: some positive θ(P) is not
// chosen, or some negated θ(N) is. So every embedding gives one clause
// over block choices,
//
//	∨ { block(θ(P)) chooses another fact : P positive }
//	∨ { block(θ(N)) chooses θ(N)          : N negated, θ(N) ∈ db }
//
// and q is certain iff the clauses cannot all be satisfied. Every repair
// chooses the fact of a singleton block: a positive literal over one is
// false and left out, and a negated literal over one is true, so its
// clause is dropped. An empty clause is an embedding no repair kills,
// and q is certain. Self-join-freeness makes each atom the only one over
// its relation, so a clause names a block at most once.
//
// Only blocks some clause names are variables. Clauses that share no
// block constrain disjoint choices, so the set is unsatisfiable iff one
// of its connected components is; each component is decided by DPLL
// with unit propagation over the blocks' choices. Everything runs on the
// interned view: ids, tuple- and block-table probes, no string
// dictionary and no repair database.

// RepairSearch reports whether q is true in every repair of the
// database frozen as ix. It answers as IsCertain does. Relations q
// mentions that ix does not declare are empty; q must be validated
// (schema.Query.Validate).
func RepairSearch(q schema.Query, ix *db.Interned) bool {
	var c clauses
	if !c.plan(q, ix) {
		return false
	}
	if !c.join(0) {
		return true
	}
	return c.unsat()
}

// term is one position of an atom resolved against the view: the id of
// a constant when slot < 0, else a variable slot that the position binds
// (the variable's first position in join order) or checks.
type term struct {
	slot int
	id   int32
	bind bool
}

// atom is one literal of q over its relation's interned rows.
type atom struct {
	rel   *db.InternedRelation
	terms []term
	// probe is the width of the prefix bound on entry to the atom, for
	// positive atoms: the arity (a tuple-table probe), the relation's key
	// (a block-table probe), or 0 (a scan).
	probe int
	buf   []int32 // the probed tuple or key
	row   int     // the row the current embedding matched
}

// lit is a literal over block variable v: "v chooses value val" when eq,
// "v chooses any other value" otherwise. The values of a variable are
// the facts of its block that some clause names, in order of first
// mention, and one more standing for all the others when there are any.
type lit struct {
	v, val int32
	eq     bool
}

// blockVar is one block that some clause names.
type blockVar struct {
	size  int   // facts in the block
	named int32 // facts of the block some clause names
}

// clauses builds the clause set of q on one view.
type clauses struct {
	pos, neg []atom // pos in join order
	env      []int32

	blocks map[[2]int32]int32 // {atom, tail row} → variable
	facts  map[[2]int32]lit   // {atom, row} → its variable and value
	vars   []blockVar
	lits   []lit
	ends   []int32 // clause i is lits[ends[i-1]:ends[i]]
}

// plan resolves q against ix and orders its positive atoms for the join.
// It reports false when q has no embedding at all: a positive atom whose
// relation is empty, undeclared or of another arity, or whose constant
// ix does not know.
func (c *clauses) plan(q schema.Query, ix *db.Interned) bool {
	slots := make(map[string]int)
	resolve := func(a schema.Atom) (atom, bool) {
		r := ix.Relation(a.Rel)
		if r == nil || r.Rows() == 0 || r.Arity != a.Arity() {
			return atom{}, false
		}
		out := atom{rel: r, terms: make([]term, len(a.Terms)), buf: make([]int32, len(a.Terms))}
		for i, t := range a.Terms {
			if !t.IsVar {
				id, ok := ix.ID(t.Name)
				if !ok {
					return atom{}, false
				}
				out.terms[i] = term{slot: -1, id: id}
				continue
			}
			s, ok := slots[t.Name]
			if !ok {
				s = len(slots)
				slots[t.Name] = s
			}
			out.terms[i] = term{slot: s}
		}
		return out, true
	}
	var todo []atom
	for _, a := range q.Positive() {
		r, ok := resolve(a)
		if !ok {
			return false
		}
		todo = append(todo, r)
	}
	// A negated atom that cannot hold a fact of the view is never chosen:
	// its literal is false in every clause, so it is left out.
	for _, a := range q.Negated() {
		if r, ok := resolve(a); ok {
			c.neg = append(c.neg, r)
		}
	}
	c.env = make([]int32, len(slots))

	// Greedy join order: next the atom whose bound prefix is widest (a
	// tuple probe, then a block probe, then a scan), the smaller
	// relation on ties.
	bound := make([]bool, len(slots))
	for len(todo) > 0 {
		best, bestProbe := 0, -1
		for i := range todo {
			p := probeWidth(&todo[i], bound)
			if p > bestProbe || p == bestProbe && todo[i].rel.Rows() < todo[best].rel.Rows() {
				best, bestProbe = i, p
			}
		}
		a := todo[best]
		todo = append(todo[:best], todo[best+1:]...)
		a.probe = bestProbe
		for i, t := range a.terms {
			if t.slot >= 0 && !bound[t.slot] {
				a.terms[i].bind = true
				bound[t.slot] = true
			}
		}
		c.pos = append(c.pos, a)
	}
	return true
}

// probeWidth returns the prefix of a that bound covers, as the join
// probes it: the whole tuple, the relation's key, or nothing.
func probeWidth(a *atom, bound []bool) int {
	covered := func(n int) bool {
		for _, t := range a.terms[:n] {
			if t.slot >= 0 && !bound[t.slot] {
				return false
			}
		}
		return true
	}
	switch {
	case covered(len(a.terms)):
		return len(a.terms)
	case covered(a.rel.Key):
		return a.rel.Key
	}
	return 0
}

// join enumerates the embeddings of the positive atoms from the i-th on
// and emits one clause per embedding. It reports false as soon as a
// clause is empty: q is then certain.
func (c *clauses) join(i int) bool {
	if i == len(c.pos) {
		return c.emit()
	}
	a := &c.pos[i]
	if a.probe == 0 {
		for r := 0; r < a.rel.Rows(); r++ {
			if !c.match(i, r) {
				return false
			}
		}
		return true
	}
	for k, t := range a.terms[:a.probe] {
		a.buf[k] = c.value(t)
	}
	if a.probe == len(a.terms) {
		if r := a.rel.Find(a.buf); r >= 0 {
			a.row = r
			return c.join(i + 1)
		}
		return true
	}
	tail := a.rel.BlockTail(a.buf[:a.probe])
	if tail < 0 {
		return true
	}
	for r := a.rel.NextInBlock(tail); ; r = a.rel.NextInBlock(r) {
		if !c.match(i, r) {
			return false
		}
		if r == tail {
			return true
		}
	}
}

// match extends the embedding with row r of the i-th positive atom when
// the row agrees with it, and joins on.
func (c *clauses) match(i, r int) bool {
	a := &c.pos[i]
	row := a.rel.Row(r)
	for k, t := range a.terms {
		if t.bind {
			c.env[t.slot] = row[k]
		} else if row[k] != c.value(t) {
			return true
		}
	}
	a.row = r
	return c.join(i + 1)
}

func (c *clauses) value(t term) int32 {
	if t.slot < 0 {
		return t.id
	}
	return c.env[t.slot]
}

// emit adds the clause of the current embedding, reporting false when
// it is empty.
func (c *clauses) emit() bool {
	start := len(c.lits)
	for i := range c.neg {
		n := &c.neg[i]
		for k, t := range n.terms {
			n.buf[k] = c.value(t)
		}
		r := n.rel.Find(n.buf)
		if r < 0 {
			continue
		}
		if n.rel.NextInBlock(r) == r {
			c.lits = c.lits[:start]
			return true
		}
		c.lits = append(c.lits, c.literal(len(c.pos)+i, n.rel, r, true))
	}
	for i := range c.pos {
		p := &c.pos[i]
		if p.rel.NextInBlock(p.row) != p.row {
			c.lits = append(c.lits, c.literal(i, p.rel, p.row, false))
		}
	}
	if len(c.lits) == start {
		return false
	}
	c.ends = append(c.ends, int32(len(c.lits)))
	return true
}

// literal returns the literal over row r of atom a's relation, making
// its block a variable and the row a value on first mention.
func (c *clauses) literal(a int, rel *db.InternedRelation, r int, eq bool) lit {
	if c.facts == nil {
		c.facts = make(map[[2]int32]lit)
		c.blocks = make(map[[2]int32]int32)
	}
	fact := [2]int32{int32(a), int32(r)}
	l, ok := c.facts[fact]
	if !ok {
		tail := rel.BlockTail(rel.Row(r)[:rel.Key])
		block := [2]int32{int32(a), int32(tail)}
		v, ok := c.blocks[block]
		if !ok {
			size := 1
			for i := rel.NextInBlock(tail); i != tail; i = rel.NextInBlock(i) {
				size++
			}
			v = int32(len(c.vars))
			c.blocks[block] = v
			c.vars = append(c.vars, blockVar{size: size})
		}
		l = lit{v: v, val: c.vars[v].named}
		c.vars[v].named++
		c.facts[fact] = l
	}
	l.eq = eq
	return l
}

// unsat reports whether some connected component of the clause set is
// unsatisfiable.
func (c *clauses) unsat() bool {
	s := newSolver(c)
	uf := graphx.NewIntUnionFind(len(c.vars))
	for k := range c.ends {
		cl := s.clause(int32(k))
		for _, l := range cl[1:] {
			uf.Union(cl[0].v, l.v)
		}
	}
	// Bucket the variables and the clauses by component root.
	comp := make(map[int32]int)
	var vars, cls [][]int32
	for v := range c.vars {
		root := uf.Find(int32(v))
		i, ok := comp[root]
		if !ok {
			i = len(vars)
			comp[root] = i
			vars, cls = append(vars, nil), append(cls, nil)
		}
		vars[i] = append(vars[i], int32(v))
	}
	for k := range c.ends {
		i := comp[uf.Find(s.clause(int32(k))[0].v)]
		cls[i] = append(cls[i], int32(k))
	}
	for i := range vars {
		s.queue = append(s.queue[:0], vars[i]...)
		if !s.propagate() || !s.search(cls[i]) {
			return true
		}
	}
	return false
}

// solver is DPLL over block variables with finite domains. A variable's
// state is the set of values still allowed; it is decided when one is
// left. Every change removes values and is recorded on the trail, so
// backtracking puts them back.
type solver struct {
	lits  []lit
	ends  []int32
	off   []int32 // variable v's values are alive[off[v]:off[v+1]]
	alive []bool
	owner []int32 // the variable of each value slot
	count []int32 // values still allowed, per variable
	occ   [][]int32
	trail []int32 // removed value slots, oldest first
	queue []int32 // variables whose values changed since propagation
}

func newSolver(c *clauses) *solver {
	s := &solver{lits: c.lits, ends: c.ends,
		off: make([]int32, len(c.vars)+1), count: make([]int32, len(c.vars)), occ: make([][]int32, len(c.vars))}
	for v, b := range c.vars {
		n := b.named
		if b.size > int(n) {
			n++ // the facts no clause names, as one value
		}
		s.count[v] = n
		s.off[v+1] = s.off[v] + n
		for ; n > 0; n-- {
			s.owner = append(s.owner, int32(v))
		}
	}
	s.alive = make([]bool, len(s.owner))
	for i := range s.alive {
		s.alive[i] = true
	}
	for k := range c.ends {
		for _, l := range s.clause(int32(k)) {
			s.occ[l.v] = append(s.occ[l.v], int32(k))
		}
	}
	return s
}

func (s *solver) clause(k int32) []lit {
	start := int32(0)
	if k > 0 {
		start = s.ends[k-1]
	}
	return s.lits[start:s.ends[k]]
}

// status returns 1 when l holds, -1 when it fails, 0 when undecided.
func (s *solver) status(l lit) int {
	i := s.off[l.v] + l.val
	switch {
	case !s.alive[i]:
		if l.eq {
			return -1
		}
		return 1
	case s.count[l.v] == 1:
		if l.eq {
			return 1
		}
		return -1
	}
	return 0
}

// set makes l hold (truth) or fail, queueing its variable; it reports
// false when that empties the variable's values.
func (s *solver) set(l lit, truth bool) bool {
	lo, hi := s.off[l.v], s.off[l.v+1]
	i := lo + l.val
	if l.eq != truth {
		// Forbid val.
		if !s.alive[i] {
			return true
		}
		if s.count[l.v] == 1 {
			return false
		}
		s.remove(i)
	} else {
		// Choose val.
		if !s.alive[i] {
			return false
		}
		for j := lo; j < hi; j++ {
			if j != i && s.alive[j] {
				s.remove(j)
			}
		}
	}
	s.queue = append(s.queue, l.v)
	return true
}

func (s *solver) remove(i int32) {
	s.alive[i] = false
	s.count[s.owner[i]]--
	s.trail = append(s.trail, i)
}

// undo puts back every value removed since the trail was mark long.
func (s *solver) undo(mark int) {
	for len(s.trail) > mark {
		i := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.alive[i] = true
		s.count[s.owner[i]]++
	}
}

// eval reads clause k under the current values: whether a literal
// holds, else how many are undecided and the first of them.
func (s *solver) eval(k int32) (holds bool, undecided int, first lit) {
	for _, l := range s.clause(k) {
		switch s.status(l) {
		case 1:
			return true, 0, lit{}
		case 0:
			if undecided == 0 {
				first = l
			}
			undecided++
		}
	}
	return false, undecided, first
}

// propagate applies unit clauses until none is left, reporting false on
// a clause whose every literal fails.
func (s *solver) propagate() bool {
	for len(s.queue) > 0 {
		v := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, k := range s.occ[v] {
			holds, undecided, unit := s.eval(k)
			if holds || undecided > 1 {
				continue
			}
			if undecided == 0 || !s.set(unit, true) {
				s.queue = s.queue[:0]
				return false
			}
		}
	}
	return true
}

// search reports whether the clauses cls, propagated, can all be
// satisfied. It branches on an undecided literal of a shortest
// unsatisfied clause: first making it hold, then making it fail.
func (s *solver) search(cls []int32) bool {
	var pick lit
	best := 0
	for _, k := range cls {
		holds, undecided, first := s.eval(k)
		if !holds && (best == 0 || undecided < best) {
			pick, best = first, undecided
			if best == 2 {
				break // propagation leaves no unsatisfied clause shorter
			}
		}
	}
	if best == 0 {
		return true
	}
	mark := len(s.trail)
	if s.set(pick, true) && s.propagate() && s.search(cls) {
		return true
	}
	s.undo(mark)
	return s.set(pick, false) && s.propagate() && s.search(cls)
}
