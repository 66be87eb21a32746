package fo

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"cqa/internal/db"
	"cqa/internal/schema"
)

// This file implements the compiled evaluation pipeline, the one FO
// evaluator: a Formula is lowered once into a Program whose environments
// are slot-indexed []int32, whose constants are resolved to dictionary
// ids, and whose quantifiers range over precomputed candidate lists
// (column posting lists of the interned database, constant singletons,
// or the active domain as a last resort). The candidate lists are sound
// over-approximations of the witnesses, so a Program answers what
// EvalReference, which quantifies over the whole active domain, answers;
// FuzzCompiledEval and TestCompiledDifferential check it. After compiling, every quantifier whose body vectorizes is lowered in
// place to its bitmap form (bitmap.go), so a Program is one tree.
//
// Lifecycle: Compile once per formula → Bind once per (program, interned
// database) → Eval any number of times, concurrently, each call with its
// own parameter values. Programs, plans, and Bounds are read-only after
// construction; per-evaluation state — the parameter ids included —
// lives in pooled machines, so steady-state evaluation performs no
// allocation.
//
// Parameters are free variables Compile is told to accept. Each is a
// slot of the constant table whose id the call supplies: the machine
// carries the table, so mach.get and a constant candidate read the
// request's id exactly where they read a constant's. Everything else Bind
// computes — relations, posting lists, the candidate lists that do not
// mention a parameter, the bitmap sets — is shared by every call.

// termRef encodes a compiled term: values ≥ 0 are environment slots,
// values < 0 are constant-table indexes (^ref).
type termRef int32

func slotRef(s int) termRef  { return termRef(s) }
func constRef(c int) termRef { return ^termRef(c) }

// candPlan is a compile-time description of where a quantified variable's
// candidate values come from. Plans are materialized into concrete
// []int32 lists at Bind time (they depend only on the database, never on
// the environment).
type candPlan interface{ isCand() }

// candDomain ranges over the active domain (no restricting guard found).
type candDomain struct{}

// candCol ranges over the posting list of one positive-atom column.
type candCol struct{ rel, col int }

// candConst is the singleton from a ground equality x = c, where c is a
// constant-table index (a parameter slot when below Program.nParams).
type candConst struct{ c int }

// candPick takes the smallest of several sound restrictions (conjunctive
// contexts: any single restriction is sound).
type candPick struct{ of []candPlan }

// candUnion takes the union of several restrictions (disjunctive
// contexts: every branch must restrict for the union to be sound).
type candUnion struct{ of []candPlan }

func (candDomain) isCand() {}
func (candCol) isCand()    {}
func (candConst) isCand()  {}
func (candPick) isCand()   {}
func (candUnion) isCand()  {}

// node is one compiled formula node. eval must not retain m.
type node interface{ eval(m *mach) bool }

type nTruth bool

type nAtom struct {
	rel   int // index into Bound.rels; nil entry = relation absent = false
	key   int // the atom's primary-key length: terms[:key] name its block
	terms []termRef
}

type nEq struct{ l, r termRef }

type nNot struct{ f node }

type nAnd struct{ fs []node }

type nOr struct{ fs []node }

type nImplies struct{ l, r node }

// nExists binds one variable (one slot) over one candidate list.
// Multi-variable quantifier blocks compile to nested nExists. block,
// when set, names a must atom whose block holds every witness
// (bitmap.go); eval then walks that block instead of the candidates.
type nExists struct {
	slot  int32
	cand  int32 // index into Bound.cands
	body  node
	block *blockDriver
}

func (t nTruth) eval(*mach) bool { return bool(t) }

func (a *nAtom) eval(m *mach) bool {
	r := m.b.rels[a.rel]
	if r == nil {
		return false
	}
	buf := m.argbuf[:len(a.terms)]
	for i, t := range a.terms {
		buf[i] = m.get(t)
	}
	return r.Has(buf)
}

func (e *nEq) eval(m *mach) bool { return m.get(e.l) == m.get(e.r) }

func (n *nNot) eval(m *mach) bool { return !n.f.eval(m) }

func (n *nAnd) eval(m *mach) bool {
	for _, f := range n.fs {
		if !f.eval(m) {
			return false
		}
	}
	return true
}

func (n *nOr) eval(m *mach) bool {
	for _, f := range n.fs {
		if f.eval(m) {
			return true
		}
	}
	return false
}

func (n *nImplies) eval(m *mach) bool { return !n.l.eval(m) || n.r.eval(m) }

func (e *nExists) eval(m *mach) bool {
	cands := m.cands[e.cand]
	if d := e.block; d != nil {
		r := m.b.rels[d.atom.rel]
		if r == nil {
			return false // the must atom never holds: no witness
		}
		// A view whose key or arity differs from the atom's keeps the
		// loop, and so does one whose largest block outnumbers the
		// candidates: the walk never tries more values than the loop.
		if r.Key == d.atom.key && r.Arity == len(d.atom.terms) && r.MaxBlockSize() <= len(cands) {
			return e.walkBlock(m, r)
		}
	}
	body, env := e.body, m.env
	for _, v := range cands {
		env[e.slot] = v
		if body.eval(m) {
			return true
		}
	}
	return false
}

// Program is a formula lowered to slot-based form. It is independent of
// any database: constants and relations are symbolic tables resolved at
// Bind time, parameters at Eval time. Read-only after Compile; safe for
// concurrent Binds.
type Program struct {
	root  node
	slots int
	// consts is the constant table, indexed by constRef: the nParams
	// parameter names first, then the distinct constant values.
	consts   []string
	nParams  int
	rels     []string // distinct relation names, indexed by nAtom.rel
	cands    []candPlan
	maxArity int

	// paramCands lists the candidate plans that mention a parameter:
	// every call materializes them with its own ids. usesDomain: some
	// plan may range over the active domain. occurs marks the parameters
	// the formula mentions: only their values join the domain, as only
	// they would be constants of the substituted sentence.
	paramCands []int32
	usesDomain bool
	occurs     []bool

	// Bitmap lowering (bitmap.go): vecQuants counts the quantifiers of
	// root that lowered to nExistsVec, vecCand marks candidate plans that
	// must materialize as IDSets at Bind time, and nVSets/nVBits/nVIds
	// size the machine scratch the vector nodes index into.
	vecQuants int
	vecCand   []bool
	nVSets    int
	nVBits    int
	nVIds     int
	// blocks holds, per slot, the block driver of its scalar quantifier
	// (nil for none); PlanSummary names them.
	blocks []*blockDriver

	needs []need
}

// Need is a necessary condition the caller of Compile knows about its
// sentence: on a database where column Col of relation Rel lacks the
// value of Term (or lacks the relation), the sentence is false. Term is
// a constant or a variable naming one of the program's parameters. A
// consistent rewriting has one per constant of a positive query atom —
// no repair holds a fact the atom matches, so the query fails in all of
// them. Bind checks a constant's Need against the posting lists, Eval a
// parameter's, so a scan for a value that occurs nowhere is answered
// without sweeping the blocks it would find nothing in.
type Need struct {
	Rel  string
	Col  int
	Term schema.Term
}

// need is a compiled Need: c indexes the constant table.
type need struct {
	rel string
	col int
	c   int
}

type compiler struct {
	p        *Program
	constIdx map[string]int
	paramIdx map[string]int
	relIdx   map[string]int
	err      error
}

// Compile lowers f into a Program whose free variables are the
// parameters params, bound per call (Bound.Eval); any other free
// variable, and a quantifier binding a parameter's name, is an error.
// needs are conditions without which f is known to be false (see Need).
func Compile(f Formula, params []string, needs ...Need) (*Program, error) {
	c := &compiler{
		p:        &Program{nParams: len(params), consts: append([]string(nil), params...)},
		constIdx: make(map[string]int),
		paramIdx: make(map[string]int, len(params)),
		relIdx:   make(map[string]int),
	}
	for i, x := range params {
		if _, dup := c.paramIdx[x]; dup {
			return nil, fmt.Errorf("fo: Compile: duplicate parameter %s", x)
		}
		c.paramIdx[x] = i
	}
	free := FreeVars(f)
	c.p.occurs = make([]bool, len(params))
	for x := range free {
		if i, ok := c.paramIdx[x]; ok {
			c.p.occurs[i] = true
			delete(free, x)
		}
	}
	if !free.Empty() {
		return nil, fmt.Errorf("fo: Compile on non-sentence with free variables %s", free)
	}
	c.p.root = c.compile(f, make(map[string]int32))
	for _, n := range needs {
		ref, ok := c.fixed(n.Term)
		if !ok {
			c.fail("fo: compile: need on variable %s, which is no parameter", n.Term.Name)
		}
		c.p.needs = append(c.p.needs, need{rel: n.Rel, col: n.Col, c: ref})
	}
	if c.err != nil {
		return nil, c.err
	}
	for i, plan := range c.p.cands {
		if c.mentionsParam(plan) {
			c.p.paramCands = append(c.p.paramCands, int32(i))
		}
		c.p.usesDomain = c.p.usesDomain || usesDomain(plan)
	}
	c.lowerBitmap()
	return c.p, nil
}

// usesDomain reports whether a candidate plan may range over the active
// domain.
func usesDomain(plan candPlan) bool {
	switch g := plan.(type) {
	case candDomain:
		return true
	case candPick:
		for _, sub := range g.of {
			if usesDomain(sub) {
				return true
			}
		}
	case candUnion:
		for _, sub := range g.of {
			if usesDomain(sub) {
				return true
			}
		}
	}
	return false
}

// fixed returns the constant-table index of a constant or parameter
// term; ok is false for any other variable.
func (c *compiler) fixed(t schema.Term) (int, bool) {
	if !t.IsVar {
		return c.constant(t.Name), true
	}
	i, ok := c.paramIdx[t.Name]
	return i, ok
}

// mentionsParam reports whether a candidate plan reads a parameter.
func (c *compiler) mentionsParam(plan candPlan) bool {
	switch g := plan.(type) {
	case candConst:
		return g.c < c.p.nParams
	case candPick:
		for _, sub := range g.of {
			if c.mentionsParam(sub) {
				return true
			}
		}
	case candUnion:
		for _, sub := range g.of {
			if c.mentionsParam(sub) {
				return true
			}
		}
	}
	return false
}

func (c *compiler) constant(v string) int {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := len(c.p.consts)
	c.constIdx[v] = i
	c.p.consts = append(c.p.consts, v)
	return i
}

func (c *compiler) relation(name string) int {
	if i, ok := c.relIdx[name]; ok {
		return i
	}
	i := len(c.p.rels)
	c.relIdx[name] = i
	c.p.rels = append(c.p.rels, name)
	return i
}

func (c *compiler) term(t schema.Term, scope map[string]int32) termRef {
	if t.IsVar {
		if s, ok := scope[t.Name]; ok {
			return slotRef(int(s))
		}
	}
	if i, ok := c.fixed(t); ok {
		return constRef(i)
	}
	c.fail("fo: compile: unbound variable %s", t.Name)
	return slotRef(0)
}

func (c *compiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *compiler) compile(f Formula, scope map[string]int32) node {
	switch g := f.(type) {
	case Truth:
		return nTruth(g)
	case Atom:
		terms := make([]termRef, len(g.Terms))
		for i, t := range g.Terms {
			terms[i] = c.term(t, scope)
		}
		if len(terms) > c.p.maxArity {
			c.p.maxArity = len(terms)
		}
		return &nAtom{rel: c.relation(g.Rel), key: g.Key, terms: terms}
	case Eq:
		return &nEq{l: c.term(g.L, scope), r: c.term(g.R, scope)}
	case Not:
		return &nNot{f: c.compile(g.F, scope)}
	case And:
		fs := make([]node, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = c.compile(sub, scope)
		}
		return &nAnd{fs: fs}
	case Or:
		fs := make([]node, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = c.compile(sub, scope)
		}
		return &nOr{fs: fs}
	case Implies:
		return &nImplies{l: c.compile(g.L, scope), r: c.compile(g.R, scope)}
	case Exists:
		return c.compileExists(g.Vars, g.Body, scope)
	case Forall:
		// ∀x⃗ φ ≡ ¬∃x⃗ ¬φ; the exists path restricts candidates using
		// the guards inside ¬φ.
		return &nNot{f: c.compileExists(g.Vars, Not{F: g.Body}, scope)}
	default:
		c.fail("fo: compile: unknown formula %T", f)
		return nTruth(false)
	}
}

// compileExists lowers an ∃-block to nested single-variable nExists
// nodes. Every binder occurrence gets a fresh slot, so shadowed names
// need no save/restore at run time.
func (c *compiler) compileExists(vars []string, body Formula, scope map[string]int32) node {
	if len(vars) == 0 {
		return c.compile(body, scope)
	}
	x := vars[0]
	if _, ok := c.paramIdx[x]; ok {
		c.fail("fo: compile: parameter %s is quantified", x)
	}
	plan, ok := c.candidates(x, body, true)
	if !ok {
		plan = candDomain{}
	}
	ci := len(c.p.cands)
	c.p.cands = append(c.p.cands, plan)
	slot := int32(c.p.slots)
	c.p.slots++
	old, had := scope[x]
	scope[x] = slot
	inner := c.compileExists(vars[1:], body, scope)
	if had {
		scope[x] = old
	} else {
		delete(scope, x)
	}
	return &nExists{slot: slot, cand: int32(ci), body: inner}
}

// candidates returns a plan for a sound over-approximation of the values
// of x for which f can be true (positive) or false (negative), by
// scanning for guard atoms and ground equalities. The boolean result
// reports whether a restriction exists; restriction existence is purely
// structural, so it is decidable at compile time (an unknown relation
// materializes as an empty posting list at Bind time).
func (c *compiler) candidates(x string, f Formula, positive bool) (candPlan, bool) {
	switch g := f.(type) {
	case Truth:
		return nil, false
	case Atom:
		if !positive {
			return nil, false
		}
		for i, t := range g.Terms {
			if t.IsVar && t.Name == x {
				return candCol{rel: c.relation(g.Rel), col: i}, true
			}
		}
		return nil, false
	case Eq:
		if !positive {
			return nil, false
		}
		if g.L.IsVar && g.L.Name == x {
			if i, ok := c.fixed(g.R); ok {
				return candConst{c: i}, true
			}
		}
		if g.R.IsVar && g.R.Name == x {
			if i, ok := c.fixed(g.L); ok {
				return candConst{c: i}, true
			}
		}
		return nil, false
	case Not:
		return c.candidates(x, g.F, !positive)
	case And:
		if positive {
			return c.pickRestriction(x, g.Fs, true)
		}
		return c.unionRestriction(x, g.Fs, false)
	case Or:
		if positive {
			return c.unionRestriction(x, g.Fs, true)
		}
		return c.pickRestriction(x, g.Fs, false)
	case Implies:
		if positive {
			return c.unionRestriction(x, []Formula{Not{F: g.L}, g.R}, true)
		}
		// L→R false: L true and R false; any restriction is sound.
		if plan, ok := c.candidates(x, g.L, true); ok {
			return plan, true
		}
		return c.candidates(x, g.R, false)
	case Exists:
		for _, v := range g.Vars {
			if v == x {
				return nil, false // x is shadowed; no free occurrence below
			}
		}
		if positive {
			return c.candidates(x, g.Body, true)
		}
		return nil, false
	case Forall:
		for _, v := range g.Vars {
			if v == x {
				return nil, false
			}
		}
		if !positive {
			return c.candidates(x, g.Body, false)
		}
		return nil, false
	default:
		c.fail("fo: compile: unknown formula %T", f)
		return nil, false
	}
}

// pickRestriction: in a conjunctive context any single child restriction
// is sound; Bind materializes every restricting child and keeps the
// smallest list.
func (c *compiler) pickRestriction(x string, fs []Formula, positive bool) (candPlan, bool) {
	var of []candPlan
	for _, sub := range fs {
		if plan, ok := c.candidates(x, sub, positive); ok {
			of = append(of, plan)
		}
	}
	switch len(of) {
	case 0:
		return nil, false
	case 1:
		return of[0], true
	default:
		return candPick{of: of}, true
	}
}

// unionRestriction: in a disjunctive context every child must restrict;
// the candidate set is the union.
func (c *compiler) unionRestriction(x string, fs []Formula, positive bool) (candPlan, bool) {
	var of []candPlan
	for _, sub := range fs {
		plan, ok := c.candidates(x, sub, positive)
		if !ok {
			return nil, false
		}
		of = append(of, plan)
	}
	switch len(of) {
	case 0:
		return nil, false
	case 1:
		return of[0], true
	default:
		return candUnion{of: of}, true
	}
}

// Bound is a Program linked against one interned database: constants
// resolved to ids, relations resolved to indexes, and every quantifier's
// candidate plan that mentions no parameter materialized into a concrete
// list. Read-only after Bind and safe for unbounded concurrent Eval
// calls; per-call state, the parameter ids included, lives in pooled
// machines.
type Bound struct {
	p      *Program
	ix     *db.Interned
	consts []int32 // the constant table; parameter entries are per call
	rels   []*db.InternedRelation
	cands  [][]int32
	domain []int32
	pool   sync.Pool

	// candSets materializes the candidate lists of vectorized
	// quantifiers as IDSets (nil entries for scalar-only cands). Only
	// populated when a quantifier lowered.
	candSets []*db.IDSet

	// unmet: ix fails one of the program's constant Needs, so Eval
	// answers false without running. paramNeeds are the Needs on
	// parameters, checked per call.
	unmet      bool
	paramNeeds []paramNeed

	// synthetic holds the values Bind gave synthetic ids (constants and
	// bind-time parameter values the database does not know); synth is
	// the next free synthetic id.
	synthetic map[string]int32
	synth     int32
}

// paramNeed is a Need on parameter slot c; r is nil when the database
// lacks the relation.
type paramNeed struct {
	r   *db.InternedRelation
	col int
	c   int
}

// Bind links the program against ix. Constants unknown to the database
// receive synthetic ids (≥ ix.NumIDs()) that match no fact but
// participate in equality and quantification, preserving the
// active-domain semantics of EvalReference (database constants ∪ formula
// constants). vals, when given, are parameter values that join the
// quantification domain the same way: Eval binds a call-private Bound
// with them when the program quantifies over the active domain and a
// value lies outside it.
func (p *Program) Bind(ix *db.Interned, vals ...string) *Bound {
	b := &Bound{p: p, ix: ix}
	b.synth = ix.NumIDs()
	b.consts = make([]int32, len(p.consts))
	for i := p.nParams; i < len(p.consts); i++ {
		b.consts[i] = b.intern(p.consts[i])
	}
	var extra []int32
	for i, v := range vals {
		if p.occurs[i] {
			extra = append(extra, b.intern(v))
		}
	}
	for _, n := range p.needs {
		r := ix.Relation(n.rel)
		if n.c < p.nParams {
			b.paramNeeds = append(b.paramNeeds, paramNeed{r: r, col: n.col, c: n.c})
			continue
		}
		id := b.consts[n.c]
		if !b.known(id) || r == nil || n.col >= r.Arity || !r.PostingHas(n.col, id) {
			b.unmet = true
		}
	}
	b.rels = make([]*db.InternedRelation, len(p.rels))
	for i, name := range p.rels {
		b.rels[i] = ix.Relation(name)
	}
	// The quantification domain is the active domain plus any formula
	// constant (or bind-time parameter value) not occurring in it.
	b.domain = ix.DomainIDs()
	extra = append(extra, b.consts[p.nParams:]...)
	var missing []int32
	for _, id := range extra {
		if !containsID(b.domain, id) && !slices.Contains(missing, id) {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		merged := make([]int32, 0, len(b.domain)+len(missing))
		merged = append(merged, b.domain...)
		merged = append(merged, missing...)
		sortIDs(merged)
		b.domain = merged
	}
	b.cands = make([][]int32, len(p.cands))
	for i, plan := range p.cands {
		if !p.readsParam(i) {
			b.cands[i] = b.materialize(plan, b.consts)
		}
	}
	if p.vecQuants > 0 && !b.unmet {
		b.candSets = make([]*db.IDSet, len(p.cands))
		dom := ix.DomainIDs()
		for i := range p.cands {
			if !p.vecCand[i] {
				continue
			}
			list := b.cands[i]
			// The unmerged active domain reuses the view-wide memoized
			// set; everything else builds its own.
			if len(list) > 0 && len(list) == len(dom) && &list[0] == &dom[0] {
				b.candSets[i] = ix.DomainSet()
			} else {
				b.candSets[i] = db.NewIDSet(list)
			}
		}
	}
	b.pool.New = func() any { return b.newMach() }
	return b
}

// intern returns v's id: its dictionary id, or the synthetic id Bind
// gave it, or a fresh synthetic one.
func (b *Bound) intern(v string) int32 {
	if id, ok := b.ix.ID(v); ok {
		return id
	}
	if id, ok := b.synthetic[v]; ok {
		return id
	}
	if b.synthetic == nil {
		b.synthetic = make(map[string]int32)
	}
	id := b.synth
	b.synthetic[v] = id
	b.synth++
	return id
}

// known reports whether id is a dictionary id, not a synthetic one.
func (b *Bound) known(id int32) bool { return id < b.ix.NumIDs() }

// readsParam reports whether candidate plan i reads a parameter.
func (p *Program) readsParam(i int) bool {
	for _, j := range p.paramCands {
		if int(j) == i {
			return true
		}
	}
	return false
}

func (b *Bound) newMach() *mach {
	p := b.p
	m := &mach{b: b, env: make([]int32, p.slots), argbuf: make([]int32, p.maxArity), consts: b.consts, cands: b.cands}
	if p.nParams > 0 {
		m.consts = append([]int32(nil), b.consts...)
		m.cands = append([][]int32(nil), b.cands...)
	}
	if p.vecQuants > 0 {
		m.vsets = make([]*db.IDSet, p.nVSets)
		m.vbits = make([]bool, p.nVBits)
		m.vids = make([]int32, p.nVIds)
		m.restbuf = make([]int32, p.maxArity)
	}
	return m
}

// bind writes the ids of one call's parameter values into m's constant
// table and materializes the candidate plans that read them. It reports
// whether the values meet the program's parameter Needs. A value the
// database does not know gets a synthetic id, equal values equal ids.
func (m *mach) bind(vals []string) (met bool) {
	b := m.b
	if len(vals) != b.p.nParams {
		panic(fmt.Sprintf("fo: %d parameter values for a program of %d parameters", len(vals), b.p.nParams))
	}
	if len(vals) == 0 {
		return true
	}
	next := b.synth
	for i, v := range vals {
		id, ok := b.ix.ID(v)
		if !ok {
			id, ok = b.synthetic[v]
		}
		for j := 0; !ok && j < i; j++ {
			if vals[j] == v {
				id, ok = m.consts[j], true
			}
		}
		if !ok {
			id = next
			next++
		}
		m.consts[i] = id
	}
	for _, i := range b.p.paramCands {
		m.cands[i] = b.materialize(b.p.cands[i], m.consts)
	}
	for _, n := range b.paramNeeds {
		id := m.consts[n.c]
		if !b.known(id) || n.r == nil || n.col >= n.r.Arity || !n.r.PostingHas(n.col, id) {
			return false
		}
	}
	return true
}

// outside reports whether the program quantifies over the active domain
// and a parameter id bound on m lies outside b's domain: the call then
// needs a Bound whose domain includes it (Bind with the values).
func (m *mach) outside() bool {
	if !m.b.p.usesDomain {
		return false
	}
	for i, id := range m.consts[:m.b.p.nParams] {
		if m.b.p.occurs[i] && !containsID(m.b.domain, id) {
			return true
		}
	}
	return false
}

func containsID(s []int32, id int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

func sortIDs(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// materialize turns a candidate plan into a concrete sorted id list,
// reading constants and parameters from the constant table consts.
func (b *Bound) materialize(plan candPlan, consts []int32) []int32 {
	switch p := plan.(type) {
	case candDomain:
		return b.domain
	case candCol:
		r := b.rels[p.rel]
		if r == nil {
			return nil // unknown relation: the atom can never hold
		}
		return r.Posting(p.col)
	case candConst:
		return consts[p.c : p.c+1 : p.c+1]
	case candPick:
		best := b.materialize(p.of[0], consts)
		for _, sub := range p.of[1:] {
			if got := b.materialize(sub, consts); len(got) < len(best) {
				best = got
			}
		}
		return best
	case candUnion:
		set := make(map[int32]bool)
		for _, sub := range p.of {
			for _, id := range b.materialize(sub, consts) {
				set[id] = true
			}
		}
		out := make([]int32, 0, len(set))
		for id := range set {
			out = append(out, id)
		}
		sortIDs(out)
		return out
	default:
		panic(fmt.Sprintf("fo: unknown candidate plan %T", plan))
	}
}

// mach is the per-evaluation state: the slot environment, the atom
// argument scratch buffer, and — for programs with parameters — its own
// copy of the constant table and of the candidate lists, whose parameter
// entries bind sets per call. Machines are pooled by the Bound; one
// machine is used by exactly one goroutine at a time.
type mach struct {
	b      *Bound
	env    []int32
	argbuf []int32
	consts []int32
	cands  [][]int32

	// Bitmap-evaluation scratch (bitmap.go): per-quantifier prep results
	// indexed by the program-wide unique slots the vector nodes carry.
	// Nested vectorized quantifiers never collide because indexes are
	// globally distinct.
	vsets   []*db.IDSet
	vbits   []bool
	vids    []int32
	restbuf []int32
}

func (m *mach) get(t termRef) int32 {
	if t >= 0 {
		return m.env[t]
	}
	return m.consts[^t]
}

// Eval evaluates the bound program with the parameter values vals, in
// slot order: lowered quantifiers sweep membership words, the rest loop
// over their candidates. Safe for concurrent use; steady-state calls
// allocate nothing once the lazy hole indexes are built, except when a
// value outside the active domain meets a program that quantifies over
// it, which binds a call-private Bound.
func (b *Bound) Eval(vals ...string) bool {
	if b.unmet {
		return false
	}
	m := b.pool.Get().(*mach)
	met := m.bind(vals)
	if met && m.outside() {
		b.pool.Put(m)
		return b.p.Bind(b.ix, vals...).Eval(vals...)
	}
	r := met && b.p.root.eval(m)
	b.pool.Put(m)
	return r
}
