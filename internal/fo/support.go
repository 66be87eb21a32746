package fo

import "cqa/internal/db"

// This file implements support-set recording for the delta layer
// (internal/delta): an evaluation run can optionally record the set of
// blocks its membership probes touched. A compiled evaluation is a
// deterministic function of (constant resolution, candidate lists,
// probe answers); replaying a recorded run against a later version
// yields the same verdict as long as those three inputs are unchanged.
// The support set makes the probe-answer part checkable: a write that
// dirties no recorded block cannot change any probe answer along the
// recorded trajectory. The candidate-list and constant parts are
// checked by the delta layer from the static program analysis below
// (CandSources, UsesDomain) and the dictionary chain (db.Interned ids
// are stable across InternNext).

// Support is the compact record of one evaluation run: the blocks every
// membership probe touched, keyed by BlockHash over the probed
// relation's name and the probe's key-prefix ids (ids of Ix's
// dictionary chain; probes through unresolved constants use their
// synthetic ids, which only ever produce spurious matches — the delta
// layer re-evaluates whenever a dirty block carries a value the
// recorded view did not know). Read-only after EvalSupport.
type Support struct {
	// Ix is the interned view the recording ran against.
	Ix *db.Interned
	// Blocks holds BlockHash(rel, keyIDs) for every probed block.
	Blocks map[uint64]struct{}
	// AbsentRels lists program relations the database did not declare
	// at bind time: every probe on them answered false without touching
	// a block, so any write to them must force re-evaluation.
	AbsentRels []string
}

// Holds reports whether the support's block set contains the block
// hash h.
func (s *Support) Holds(h uint64) bool {
	_, ok := s.Blocks[h]
	return ok
}

// BlockSeed returns the per-relation seed of the block hash: FNV-1a/64
// over the relation name. Extending a seed with a block's key-prefix
// ids (BlockHashIDs) identifies the block across every version that
// shares the recorded view's dictionary chain.
func BlockSeed(rel string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(rel); i++ {
		h ^= uint64(rel[i])
		h *= 1099511628211
	}
	return h
}

// BlockHashIDs extends a relation seed with a block's key-prefix ids.
func BlockHashIDs(seed uint64, key []int32) uint64 {
	h := seed
	for _, v := range key {
		u := uint32(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(u >> s))
			h *= 1099511628211
		}
	}
	return h
}

// recorder accumulates probed blocks during one EvalSupport run. seeds
// is indexed by the program's relation table, so a probe costs one hash
// and one set insert on top of the normal probe.
type recorder struct {
	seeds  []uint64
	blocks map[uint64]struct{}
}

func (rc *recorder) probe(rel int, key []int32) {
	rc.blocks[BlockHashIDs(rc.seeds[rel], key)] = struct{}{}
}

// EvalSupport evaluates the bound program like Eval, with the parameter
// values vals, while recording the support set of the run. It is the
// registration/re-evaluation path of the delta layer, not a hot path: it
// allocates a private machine and a fresh Support per call. Unmet Needs
// do not cut the run short: what it records is what the delta layer
// replays. Safe for concurrent use.
func (b *Bound) EvalSupport(vals ...string) (bool, *Support) {
	m := b.newMach()
	m.bind(vals)
	if m.outside() {
		return b.p.Bind(b.ix, vals...).EvalSupport(vals...)
	}
	rc := &recorder{
		seeds:  make([]uint64, len(b.p.rels)),
		blocks: make(map[uint64]struct{}),
	}
	sup := &Support{Ix: b.ix, Blocks: rc.blocks}
	for i, name := range b.p.rels {
		rc.seeds[i] = BlockSeed(name)
		if b.rels[i] == nil {
			sup.AbsentRels = append(sup.AbsentRels, name)
		}
	}
	m.rec = rc
	return b.p.root.eval(m), sup
}

// Rels returns the distinct relation names the program mentions. The
// caller must not mutate the result.
func (p *Program) Rels() []string { return p.rels }

// CandSource names one posting-list candidate source of a program: the
// quantifier-restriction analysis may draw a variable's candidate
// values from column Col of relation Rel. The delta layer re-evaluates
// a registration whenever a write changes the value set of any of its
// program's candidate sources — that covers every alternative of a
// pick (Bind's size-based choice may differ across versions) and every
// branch of a union.
type CandSource struct {
	Rel string
	Col int
}

// CandSources returns every posting-list candidate source occurring in
// the program's candidate plans, deduplicated.
func (p *Program) CandSources() []CandSource {
	seen := make(map[CandSource]bool)
	var out []CandSource
	var walk func(plan candPlan)
	walk = func(plan candPlan) {
		switch g := plan.(type) {
		case candCol:
			cs := CandSource{Rel: p.rels[g.rel], Col: g.col}
			if !seen[cs] {
				seen[cs] = true
				out = append(out, cs)
			}
		case candPick:
			for _, sub := range g.of {
				walk(sub)
			}
		case candUnion:
			for _, sub := range g.of {
				walk(sub)
			}
		}
	}
	for _, plan := range p.cands {
		walk(plan)
	}
	return out
}

// UsesDomain reports whether any quantifier of the program falls back
// to active-domain candidates. Such programs are sensitive to every
// write that introduces or retires a domain value, so the delta layer
// excludes them from block-level skipping. A pick with a domain
// alternative counts: Bind keeps only the smallest alternative, but the
// choice is version-dependent.
func (p *Program) UsesDomain() bool { return p.usesDomain }

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
