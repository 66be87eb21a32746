package fo

import "cqa/internal/db"

// This file implements the bitmap lowering of compiled programs
// ("compiled-bitmap"). A scalar nExists (compile.go) tests one
// candidate assignment at a time: an innermost ∃x loops over a
// candidate id list and re-evaluates its body per value, costing one
// hash probe per atom per candidate. Here, innermost quantifiers — those
// whose variable does not occur free under any deeper quantifier — are
// lowered once more into a vector form that evaluates the body for 64
// candidates at a time with word-parallel AND / OR / ANDNOT sweeps over
// db.IDSet membership words:
//
//   - an atom R(..., x, ...) with x at one column ("hole") and all other
//     terms fixed by the outer environment becomes the IDSet of hole
//     values stored with that rest-of-row (InternedRelation.HoleSet);
//   - an equality x = t becomes a one-bit singleton word;
//   - subtrees not mentioning x are evaluated once per outer environment
//     and broadcast as all-ones/all-zero words;
//   - ∧/∨/¬/→ become &, |, ^, and (^l | r) on the words.
//
// The sweep is driven by the smallest available set: the quantifier's
// candidate set, or any "must" atom set — an atom the body forces true
// at every witness (computed by polarity walk, so ¬(R(x)→φ) still
// contributes R's set). For rewritings of the Koutris–Wijsen form this
// turns the inner ∀-block from O(|posting|) probes per outer candidate
// into a lookup of the outer block's value set (O(block size) words),
// which is where the bitmap path's speedup over the scalar one comes from.
//
// ∀ needs no special casing: compile.go already lowers ∀x φ to ¬∃x ¬φ.
// Lowering replaces nodes of Program.root in place; a quantifier that
// does not vectorize stays a scalar nExists, so Bound.Eval runs one tree
// that mixes both.
//
// A scalar quantifier gets a block driver instead when its body has a
// must atom F(k̄, …, x, …) whose key k̄ the outer environment fixes: the
// guard of the paper's ∀z (F(x̄ | z) → φ). Every witness satisfies the
// atom, so F's block of k̄ holds every witness, and its values are
// database ids, inside the quantification domain: walking that block
// (db.InternedRelation.BlockTail, NextInBlock) answers what the
// candidate loop answers, in block-size steps instead of posting-size
// ones, with no index to build.

// vnode is one vectorized formula node, evaluated over the bound
// quantifier's candidate ids. word returns the 64-candidate membership
// word for ids [w*64, w*64+64); bit evaluates a single id. Both read
// only machine scratch filled during prep — they never touch the
// environment, so the per-candidate inner loop does no slot writes.
type vnode interface {
	word(m *mach, w int32) uint64
	bit(m *mach, id int32) bool
}

// vTrue is the constant-true vector (from x = x).
type vTrue struct{}

func (vTrue) word(*mach, int32) uint64 { return ^uint64(0) }
func (vTrue) bit(*mach, int32) bool    { return true }

// vScalar wraps a subtree with no free occurrence of the vectorized
// variable: prep evaluates it once per outer environment into
// m.vbits[idx] and the vector view broadcasts the bit.
type vScalar struct {
	f   node
	idx int
}

func (s *vScalar) word(m *mach, _ int32) uint64 {
	if m.vbits[s.idx] {
		return ^uint64(0)
	}
	return 0
}

func (s *vScalar) bit(m *mach, _ int32) bool { return m.vbits[s.idx] }

// vAtom is an atom with the vectorized variable at exactly one column
// (the hole). prep resolves the remaining terms against the outer
// environment and stores the relation's hole set in m.vsets[idx]; nil
// means no fact matches the rest-of-row (or the relation is absent), so
// the atom is false for every candidate.
type vAtom struct {
	rel  int
	hole int
	rest []termRef // the non-hole columns, in column order
	idx  int
}

func (a *vAtom) word(m *mach, w int32) uint64 {
	s := m.vsets[a.idx]
	if s == nil {
		return 0
	}
	return s.Word(w)
}

func (a *vAtom) bit(m *mach, id int32) bool {
	s := m.vsets[a.idx]
	return s != nil && s.Contains(id)
}

// vEqC is the equality x = t where t is a constant or an outer slot:
// prep resolves t's id into m.vids[idx] and the vector view is a
// one-bit singleton.
type vEqC struct {
	t   termRef
	idx int
}

func (e *vEqC) word(m *mach, w int32) uint64 {
	id := m.vids[e.idx]
	if id>>6 != w {
		return 0
	}
	return 1 << (uint(id) & 63)
}

func (e *vEqC) bit(m *mach, id int32) bool { return m.vids[e.idx] == id }

type vNot struct{ f vnode }

func (n *vNot) word(m *mach, w int32) uint64 { return ^n.f.word(m, w) }
func (n *vNot) bit(m *mach, id int32) bool   { return !n.f.bit(m, id) }

type vAnd struct{ fs []vnode }

func (n *vAnd) word(m *mach, w int32) uint64 {
	acc := ^uint64(0)
	for _, f := range n.fs {
		acc &= f.word(m, w)
		if acc == 0 {
			return 0
		}
	}
	return acc
}

func (n *vAnd) bit(m *mach, id int32) bool {
	for _, f := range n.fs {
		if !f.bit(m, id) {
			return false
		}
	}
	return true
}

type vOr struct{ fs []vnode }

func (n *vOr) word(m *mach, w int32) uint64 {
	var acc uint64
	for _, f := range n.fs {
		acc |= f.word(m, w)
	}
	return acc
}

func (n *vOr) bit(m *mach, id int32) bool {
	for _, f := range n.fs {
		if f.bit(m, id) {
			return true
		}
	}
	return false
}

type vImplies struct{ l, r vnode }

func (n *vImplies) word(m *mach, w int32) uint64 { return ^n.l.word(m, w) | n.r.word(m, w) }
func (n *vImplies) bit(m *mach, id int32) bool   { return !n.l.bit(m, id) || n.r.bit(m, id) }

// nExistsVec is the vectorized form of nExists. It keeps the scalar body,
// which usesSlot reads for the quantifiers that enclose it, and adds the
// vector tree plus the prep lists: the scalar subtrees, hole atoms, and
// equality ids that must be resolved against the outer environment
// before the word sweep.
type nExistsVec struct {
	slot int32
	cand int32
	body node // scalar equivalent

	vec     vnode
	scalars []*vScalar
	atoms   []*vAtom
	eqs     []*vEqC
	// musts are m.vsets indexes of atoms every witness must satisfy
	// (true at any id where vec is true); the sweep is driven by the
	// smallest of these sets and the candidate set, which is what turns
	// per-candidate probing into per-block lookups.
	musts []int32
}

func (e *nExistsVec) eval(m *mach) bool {
	b := m.b
	cset := b.candSets[e.cand]
	if cset == nil || cset.Empty() {
		return false
	}

	// Prep: resolve everything that depends on the outer environment,
	// once for all candidates. After this the sweep reads scratch only.
	for _, s := range e.scalars {
		m.vbits[s.idx] = s.f.eval(m)
	}
	for _, a := range e.atoms {
		r := b.rels[a.rel]
		if r == nil {
			m.vsets[a.idx] = nil
			continue
		}
		rest := m.restbuf[:len(a.rest)]
		for i, t := range a.rest {
			rest[i] = m.get(t)
		}
		m.vsets[a.idx] = r.HoleSet(a.hole, rest)
	}
	for _, q := range e.eqs {
		m.vids[q.idx] = m.get(q.t)
	}

	// Pick the sweep driver: the smallest set that must contain every
	// witness. A nil/empty must set means some required atom can never
	// hold, so there is no witness at all.
	driver := cset
	for _, si := range e.musts {
		s := m.vsets[si]
		if s == nil || s.Empty() {
			return false
		}
		if s.Card() < driver.Card() {
			driver = s
		}
	}

	if sp := driver.SparseIDs(); sp != nil {
		for _, id := range sp {
			if driver != cset && !cset.Contains(id) {
				continue
			}
			if e.vec.bit(m, id) {
				return true
			}
		}
		return false
	}
	for w, dw := range driver.Words() {
		if dw == 0 {
			continue
		}
		if driver != cset {
			dw &= cset.Word(int32(w))
			if dw == 0 {
				continue
			}
		}
		if dw&e.vec.word(m, int32(w)) != 0 {
			return true
		}
	}
	return false
}

// vecBuilder accumulates the prep lists and scratch indexes while
// vectorizing one quantifier body.
type vecBuilder struct {
	c       *compiler
	slot    int32
	scalars []*vScalar
	atoms   []*vAtom
	sets    map[*nAtom]int32 // each hole atom's m.vsets index
	eqs     []*vEqC
	failed  bool
}

func (vb *vecBuilder) fail() vnode {
	vb.failed = true
	return vTrue{}
}

func (vb *vecBuilder) build(n node) vnode {
	if vb.failed {
		return vTrue{}
	}
	if !usesSlot(n, vb.slot) {
		s := &vScalar{f: n, idx: vb.c.p.nVBits}
		vb.c.p.nVBits++
		vb.scalars = append(vb.scalars, s)
		return s
	}
	switch g := n.(type) {
	case *nAtom:
		hole := g.hole(vb.slot)
		if hole < 0 {
			return vb.fail() // x occurs twice, e.g. R(x, x)
		}
		rest := make([]termRef, 0, len(g.terms)-1)
		for i, t := range g.terms {
			if i != hole {
				rest = append(rest, t)
			}
		}
		a := &vAtom{rel: g.rel, hole: hole, rest: rest, idx: vb.c.p.nVSets}
		vb.c.p.nVSets++
		vb.atoms = append(vb.atoms, a)
		vb.sets[g] = int32(a.idx)
		return a
	case *nEq:
		lIsX := g.l >= 0 && int32(g.l) == vb.slot
		rIsX := g.r >= 0 && int32(g.r) == vb.slot
		if lIsX && rIsX {
			return vTrue{}
		}
		other := g.r
		if rIsX {
			other = g.l
		}
		e := &vEqC{t: other, idx: vb.c.p.nVIds}
		vb.c.p.nVIds++
		vb.eqs = append(vb.eqs, e)
		return e
	case *nNot:
		return &vNot{f: vb.build(g.f)}
	case *nAnd:
		fs := make([]vnode, len(g.fs))
		for i, f := range g.fs {
			fs[i] = vb.build(f)
		}
		return &vAnd{fs: fs}
	case *nOr:
		fs := make([]vnode, len(g.fs))
		for i, f := range g.fs {
			fs[i] = vb.build(f)
		}
		return &vOr{fs: fs}
	case *nImplies:
		return &vImplies{l: vb.build(g.l), r: vb.build(g.r)}
	default:
		// x occurs free under a deeper quantifier (nExists/nExistsVec):
		// its value would have to thread through the inner loop, so this
		// quantifier stays scalar.
		return vb.fail()
	}
}

// usesSlot reports whether slot occurs in the subtree. Slots are unique
// per binder occurrence (compileExists), so no shadowing check is
// needed.
func usesSlot(n node, slot int32) bool {
	switch g := n.(type) {
	case nTruth:
		return false
	case *nAtom:
		for _, t := range g.terms {
			if t >= 0 && int32(t) == slot {
				return true
			}
		}
		return false
	case *nEq:
		return (g.l >= 0 && int32(g.l) == slot) || (g.r >= 0 && int32(g.r) == slot)
	case *nNot:
		return usesSlot(g.f, slot)
	case *nAnd:
		for _, f := range g.fs {
			if usesSlot(f, slot) {
				return true
			}
		}
		return false
	case *nOr:
		for _, f := range g.fs {
			if usesSlot(f, slot) {
				return true
			}
		}
		return false
	case *nImplies:
		return usesSlot(g.l, slot) || usesSlot(g.r, slot)
	case *nExists:
		return usesSlot(g.body, slot)
	case *nExistsVec:
		return usesSlot(g.body, slot)
	default:
		return true // unknown node: be conservative, block vectorization
	}
}

// blockDriver is a must atom of a scalar quantifier's body with the bound
// variable at exactly one non-key column, hole, and every other column
// fixed by the outer environment, a constant or a parameter.
type blockDriver struct {
	atom *nAtom
	hole int
}

// walkBlock evaluates e over the hole values of the driver's block in r,
// trying the body only at the rows whose other columns match. The fixed
// terms are re-read with m.get at every row: the body's nested
// quantifiers reuse the machine's scratch buffers while it runs.
func (e *nExists) walkBlock(m *mach, r *db.InternedRelation) bool {
	a, hole := e.block.atom, e.block.hole
	key := m.argbuf[:a.key]
	for i, t := range a.terms[:a.key] {
		key[i] = m.get(t)
	}
	tail := r.BlockTail(key)
	if tail < 0 {
		return false
	}
	for i := r.NextInBlock(tail); ; i = r.NextInBlock(i) {
		row := r.Row(i)
		match := true
		for j := a.key; j < len(row) && match; j++ {
			match = j == hole || row[j] == m.get(a.terms[j])
		}
		if match {
			m.env[e.slot] = row[hole]
			if e.body.eval(m) {
				return true
			}
		}
		if i == tail {
			return false
		}
	}
}

// blockDriverOf returns the first must atom of body that can drive slot's
// quantifier over one block, or nil.
func blockDriverOf(body node, slot int32) *blockDriver {
	for _, a := range mustAtoms(body, true, nil) {
		if hole := a.hole(slot); hole >= a.key {
			return &blockDriver{atom: a, hole: hole}
		}
	}
	return nil
}

// hole returns the column of slot's only occurrence in a, or -1 when
// slot occurs twice or not at all.
func (a *nAtom) hole(slot int32) int {
	hole := -1
	for i, t := range a.terms {
		if t >= 0 && int32(t) == slot {
			if hole >= 0 {
				return -1
			}
			hole = i
		}
	}
	return hole
}

// mustAtoms collects the atoms forced true at every environment where n
// evaluates to pos. The polarity walk sees through negation, so ¬(R(x) →
// φ) — the shape ∀-rewritings take after ∀ ≡ ¬∃¬ — still yields R. It
// stops at nested quantifiers, whose atoms need not hold.
func mustAtoms(n node, pos bool, out []*nAtom) []*nAtom {
	switch g := n.(type) {
	case *nAtom:
		if pos {
			out = append(out, g)
		}
	case *nNot:
		out = mustAtoms(g.f, !pos, out)
	case *nAnd:
		if pos {
			for _, f := range g.fs {
				out = mustAtoms(f, true, out)
			}
		}
	case *nOr:
		if !pos {
			for _, f := range g.fs {
				out = mustAtoms(f, false, out)
			}
		}
	case *nImplies:
		if !pos {
			out = mustAtoms(g.l, true, out)
			out = mustAtoms(g.r, false, out)
		}
	}
	return out
}

// lowerBitmap runs after compile: it rewrites Program.root bottom-up,
// replacing every vectorizable nExists with an nExistsVec and giving the
// others a block driver where their body has one.
func (c *compiler) lowerBitmap() {
	c.p.vecCand = make([]bool, len(c.p.cands))
	c.p.blocks = make([]*blockDriver, c.p.slots)
	c.p.root, c.p.vecQuants = c.lowerNode(c.p.root)
}

// lowerNode lowers n's subtree in place and returns the node that
// replaces n and the number of quantifiers lowered.
func (c *compiler) lowerNode(n node) (node, int) {
	k := 0
	switch g := n.(type) {
	case *nNot:
		g.f, k = c.lowerNode(g.f)
	case *nAnd:
		k = c.lowerAll(g.fs)
	case *nOr:
		k = c.lowerAll(g.fs)
	case *nImplies:
		var kr int
		g.l, k = c.lowerNode(g.l)
		g.r, kr = c.lowerNode(g.r)
		k += kr
	case *nExists:
		g.body, k = c.lowerNode(g.body)
		// A quantifier whose candidates depend on the call's parameter ids
		// stays scalar: candidate sets are built once per Bind.
		if !c.p.readsParam(int(g.cand)) {
			if v := c.vectorize(g); v != nil {
				return v, k + 1
			}
		}
		g.block = blockDriverOf(g.body, g.slot)
		c.p.blocks[g.slot] = g.block
	}
	return n, k
}

// vectorize returns the vector form of g, or nil when its body does not
// vectorize.
func (c *compiler) vectorize(g *nExists) *nExistsVec {
	// Snapshot scratch counters so a failed attempt does not leak unused
	// machine slots.
	p := c.p
	sets, bits, ids := p.nVSets, p.nVBits, p.nVIds
	vb := &vecBuilder{c: c, slot: g.slot, sets: make(map[*nAtom]int32)}
	vec := vb.build(g.body)
	if vb.failed {
		p.nVSets, p.nVBits, p.nVIds = sets, bits, ids
		return nil
	}
	p.vecCand[g.cand] = true
	var musts []int32
	for _, a := range mustAtoms(g.body, true, nil) {
		if idx, ok := vb.sets[a]; ok {
			musts = append(musts, idx)
		}
	}
	return &nExistsVec{
		slot:    g.slot,
		cand:    g.cand,
		body:    g.body,
		vec:     vec,
		scalars: vb.scalars,
		atoms:   vb.atoms,
		eqs:     vb.eqs,
		musts:   musts,
	}
}

func (c *compiler) lowerAll(fs []node) int {
	k := 0
	for i, f := range fs {
		var ki int
		fs[i], ki = c.lowerNode(f)
		k += ki
	}
	return k
}

// VecQuants returns the number of quantifiers that lowered to the
// vectorized form.
func (p *Program) VecQuants() int { return p.vecQuants }
