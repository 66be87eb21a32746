// Package delta maintains registered queries' certain answers
// incrementally. For each registered (query, database) pair it keeps
// the last verdict plus a compact support set of the blocks the
// compiled evaluation consulted (fo.Support). On every acknowledged
// write batch (store.Change) it intersects the dirty blocks with each
// registration's support to decide whether the verdict can have
// changed; only affected registrations are re-evaluated, and verdict
// flips are published to the registration's bounded event queue.
//
// Soundness rests on a replay argument over the compiled evaluator: an
// evaluation run is a deterministic function of (constant resolution,
// candidate lists, membership-probe answers). A change is skipped for a
// registration only when all three provably survive it:
//
//  1. constant resolution — ids are stable along the interned
//     dictionary chain (db.Interned.SameDict), and any dirty block
//     carrying a value the recorded view did not know forces
//     re-evaluation;
//  2. candidate lists — a dirty block whose row delta adds a value to,
//     or retires a value from, any column the program draws quantifier
//     candidates from (fo.Program.CandSources) forces re-evaluation;
//     programs that fall back to active-domain candidates are excluded
//     from block-level skipping entirely;
//  3. probe answers — a dirty block whose hash occurs in the recorded
//     support forces re-evaluation; blocks outside the support were
//     never consulted, so their changes cannot alter any probe along
//     the recorded trajectory.
//
// Queries without a compiled rewriting (the planner's cyclic classes
// and the naive fallback) degrade to relation-level skipping: they are
// re-evaluated whenever a write touches a relation they mention, which
// is still exact — their deciders are near-linear — just not
// block-proportional.
//
// Co-keyed queries take none of that: their verdict is a disjunction
// over keys, so it is carried across a change by re-checking the dirty
// blocks alone (carry.go), with no recorded run to replay and hence no
// support set. The engine's result cache keeps its answers current with
// the same rule. See docs/DELTA.md.
package delta

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/obs"
	"cqa/internal/store"
)

// Outcome labels what a change meant for one registration; the values
// match the delta_reeval_total{outcome} metric.
const (
	OutcomeSkipped     = "skipped"
	OutcomeReevaluated = "reevaluated"
	OutcomeFlipped     = "flipped"
)

// DefaultWatchBuffer is the per-watch event queue capacity when
// Options.WatchBuffer is unset.
const DefaultWatchBuffer = 64

// Options configures a Manager.
type Options struct {
	// OnReeval is invoked once per (change, registration group) with the
	// decision outcome (Outcome*). Registrations with the same canonical
	// signature on the same database share one group, one support set,
	// and one decision. Nil is allowed.
	OnReeval func(db, outcome string)
	// OnFanin is invoked whenever the registration population changes,
	// with the total watch count and the (smaller or equal) group count.
	// watches − groups is the number of subscriptions answered by another
	// subscription's evaluation. Nil is allowed.
	OnFanin func(watches, groups int)
	// OnFlip is invoked once per published verdict flip. Nil is allowed.
	OnFlip func(db string)
	// Tracer records one "delta" trace per processed change that had
	// registrations; nil disables tracing.
	Tracer *obs.Tracer
	// WatchBuffer is the per-watch event queue capacity; a consumer
	// that falls behind loses intermediate flips and is resynced with a
	// state event (Event.Resync). ≤ 0 selects DefaultWatchBuffer.
	WatchBuffer int
}

// Snapshot pairs a database snapshot with its store version.
type Snapshot struct {
	DB      *db.Database
	Version uint64
}

// State is a (version, verdict) pair.
type State struct {
	Version uint64
	Verdict bool
}

// Event is one published notification: a verdict flip at a version,
// carrying the dirty blocks that triggered the re-evaluation — or,
// when Resync is set, a state resynchronization after the consumer
// fell behind (From is meaningless then).
type Event struct {
	Version uint64
	From    bool
	To      bool
	Blocks  []string
	Resync  bool
}

// Manager owns the per-database delta state. All processing is
// asynchronous: Apply enqueues and returns immediately (it is called
// under the store's writer lock), a per-database worker goroutine
// processes changes strictly in version order — no coalescing, so
// every intermediate flip is observed and published.
type Manager struct {
	opt Options

	mu     sync.Mutex
	dbs    map[string]*dbState
	closed bool

	tracer atomic.Pointer[obs.Tracer]

	skipped  atomic.Uint64
	reevaled atomic.Uint64
	flipped  atomic.Uint64

	watchN atomic.Int64
	groupN atomic.Int64
}

// New builds a Manager.
func New(opt Options) *Manager {
	if opt.WatchBuffer <= 0 {
		opt.WatchBuffer = DefaultWatchBuffer
	}
	m := &Manager{opt: opt, dbs: make(map[string]*dbState)}
	if opt.Tracer != nil {
		m.tracer.Store(opt.Tracer)
	}
	return m
}

// SetTracer installs (or replaces) the tracer; the serving layer's
// registry exists only after the engine — and its manager — are built.
func (m *Manager) SetTracer(t *obs.Tracer) {
	if t != nil {
		m.tracer.Store(t)
	}
}

// Counters reports how many (change, registration group) decisions
// were skipped, re-evaluated without a flip, and re-evaluated with a
// flip.
func (m *Manager) Counters() (skipped, reevaluated, flipped uint64) {
	return m.skipped.Load(), m.reevaled.Load(), m.flipped.Load()
}

// FanIn reports the current registration population: total watches and
// the distinct (signature, database) groups backing them. watches −
// groups is the number of subscriptions sharing another subscription's
// support set and re-evaluations.
func (m *Manager) FanIn() (watches, groups int) {
	return int(m.watchN.Load()), int(m.groupN.Load())
}

// fanin adjusts the population counters and fires the OnFanin hook.
func (m *Manager) fanin(dWatch, dGroup int64) {
	w := m.watchN.Add(dWatch)
	g := m.groupN.Add(dGroup)
	if m.opt.OnFanin != nil {
		m.opt.OnFanin(int(w), int(g))
	}
}

// op is one unit of per-database worker input.
type op struct {
	// change op: version/change/dbFn set.
	change store.Change
	dbFn   func() *db.Database

	// control ops.
	register   *Watch
	regPrep    *core.Prepared
	regSnap    Snapshot
	regDone    chan regResult
	unregister *Watch
	quiesce    chan struct{}
	drop       bool
}

type regResult struct {
	state State
	err   error
}

// dbState is one database's delta state, owned by its worker.
type dbState struct {
	m    *Manager
	name string

	mu    sync.Mutex
	queue []op
	wake  chan struct{}
	stop  bool

	// Worker-owned; untouched by other goroutines. Registrations are
	// grouped by canonical query signature: every watch with the same
	// signature on this database shares one group — one support set, one
	// skip decision, one re-evaluation per change (the fan-in).
	groups      map[string]*regGroup
	nWatches    int
	lastVersion uint64
	lastDBFn    func() *db.Database
	lastDB      *db.Database // memoized lastDBFn result
}

func (m *Manager) state(name string, create bool) *dbState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	st := m.dbs[name]
	if st == nil && create {
		st = &dbState{
			m:      m,
			name:   name,
			wake:   make(chan struct{}, 1),
			groups: make(map[string]*regGroup),
		}
		m.dbs[name] = st
		go st.run()
	}
	return st
}

func (st *dbState) enqueue(o op) {
	st.mu.Lock()
	if st.stop {
		st.mu.Unlock()
		if o.regDone != nil {
			o.regDone <- regResult{err: fmt.Errorf("delta: database %s dropped", st.name)}
		}
		if o.quiesce != nil {
			close(o.quiesce)
		}
		return
	}
	st.queue = append(st.queue, o)
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// Apply feeds one acknowledged write batch. dbFn must return the
// database snapshot at exactly c.Version; it is resolved lazily (never
// when the database has no registrations), so feeding a sharded view
// whose union is expensive costs nothing until someone watches. Apply
// never blocks on delta work and is safe to call under the store's
// writer lock.
func (m *Manager) Apply(dbName string, c store.Change, dbFn func() *db.Database) {
	st := m.state(dbName, true)
	if st == nil {
		return
	}
	st.enqueue(op{change: c, dbFn: dbFn})
}

// Register admits a new watch for (query, database) and blocks until
// the worker has linearized it against the change stream: the returned
// State is the verdict at the version the watch starts from, and every
// later flip is delivered on Watch.Events. snap must be a consistent
// (snapshot, version) capture; if the worker has already processed a
// later change, the registration is evaluated against that later state
// instead, so no change between snap.Version and the returned
// State.Version is lost or double-reported.
//
// A registration whose signature already has a group on dbName joins it
// without a fresh evaluation (fan-in): it adopts the group's settled
// verdict and shares its support set and future re-evaluations.
func (m *Manager) Register(dbName, signature string, prep *core.Prepared, snap Snapshot) (*Watch, State, error) {
	w := &Watch{
		db:        dbName,
		signature: signature,
		events:    make(chan Event, m.opt.WatchBuffer),
	}
	st := m.state(dbName, true)
	if st == nil {
		return nil, State{}, fmt.Errorf("delta: manager closed")
	}
	done := make(chan regResult, 1)
	st.enqueue(op{register: w, regPrep: prep, regSnap: snap, regDone: done})
	res := <-done
	if res.err != nil {
		return nil, State{}, res.err
	}
	return w, res.state, nil
}

// Unregister removes a watch; its event channel is closed by the
// worker. Unregistering twice, or after DropDB/Close, is a no-op.
func (m *Manager) Unregister(w *Watch) {
	if w == nil {
		return
	}
	st := m.state(w.db, false)
	if st == nil {
		return
	}
	st.enqueue(op{unregister: w})
}

// DropDB discards a database's delta state and closes every watch on
// it (the serving layer drops databases on follower resets).
func (m *Manager) DropDB(dbName string) {
	st := m.state(dbName, false)
	if st == nil {
		return
	}
	st.enqueue(op{drop: true})
	m.mu.Lock()
	if m.dbs[dbName] == st {
		delete(m.dbs, dbName)
	}
	m.mu.Unlock()
}

// Quiesce blocks until every change enqueued for the database before
// the call has been processed. Used by tests and benchmarks.
func (m *Manager) Quiesce(dbName string) {
	st := m.state(dbName, false)
	if st == nil {
		return
	}
	done := make(chan struct{})
	st.enqueue(op{quiesce: done})
	<-done
}

// Close stops every worker and closes every watch.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	states := make([]*dbState, 0, len(m.dbs))
	for _, st := range m.dbs {
		states = append(states, st)
	}
	m.dbs = map[string]*dbState{}
	m.mu.Unlock()
	for _, st := range states {
		st.enqueue(op{drop: true})
	}
}

// run is the per-database worker loop: strict FIFO over the op queue.
func (st *dbState) run() {
	for {
		st.mu.Lock()
		if len(st.queue) == 0 {
			st.mu.Unlock()
			<-st.wake
			continue
		}
		o := st.queue[0]
		st.queue = st.queue[1:]
		st.mu.Unlock()

		switch {
		case o.regDone != nil:
			o.regDone <- st.admit(o.register, o.regPrep, o.regSnap)
		case o.unregister != nil:
			st.removeWatch(o.unregister)
		case o.quiesce != nil:
			close(o.quiesce)
		case o.drop:
			st.shutdown()
			return
		default:
			st.processChange(o)
		}
	}
}

// removeWatch drops one watch from its group, dissolving the group when
// it was the last member.
func (st *dbState) removeWatch(w *Watch) {
	g := st.groups[w.signature]
	if g == nil {
		return
	}
	if _, ok := g.watches[w]; !ok {
		return
	}
	delete(g.watches, w)
	close(w.events)
	st.nWatches--
	if len(g.watches) == 0 {
		delete(st.groups, w.signature)
		st.m.fanin(-1, -1)
	} else {
		st.m.fanin(-1, 0)
	}
}

// shutdown closes every watch and fails every queued control op. The
// fan-in counters drop before the channels close, so a consumer that
// observes the close sees the settled population.
func (st *dbState) shutdown() {
	if st.nWatches > 0 || len(st.groups) > 0 {
		st.m.fanin(-int64(st.nWatches), -int64(len(st.groups)))
	}
	for _, g := range st.groups {
		for w := range g.watches {
			close(w.events)
		}
	}
	st.groups = map[string]*regGroup{}
	st.nWatches = 0
	st.mu.Lock()
	st.stop = true
	rest := st.queue
	st.queue = nil
	st.mu.Unlock()
	for _, o := range rest {
		if o.regDone != nil {
			o.regDone <- regResult{err: fmt.Errorf("delta: database %s dropped", st.name)}
		}
		if o.quiesce != nil {
			close(o.quiesce)
		}
	}
}

// admit installs a new registration: it joins the signature's existing
// group when one exists (re-evaluating only if the registration's
// snapshot is ahead of the group's settled version), or creates and
// evaluates a fresh group at the worker's current state (or the
// registration's own snapshot when the worker has seen nothing newer).
func (st *dbState) admit(w *Watch, prep *core.Prepared, snap Snapshot) regResult {
	d, version := snap.DB, snap.Version
	if st.lastVersion > version {
		d, version = st.currentDB(), st.lastVersion
	} else if st.lastVersion == 0 && st.lastDBFn == nil {
		// First sight of this database: the registration's snapshot is
		// the freshest state we know.
		st.lastVersion = version
		cached := d
		st.lastDBFn = func() *db.Database { return cached }
		st.lastDB = d
	}
	g := st.groups[w.signature]
	created := g == nil
	if created {
		g = newRegGroup(w.signature, prep)
		st.groups[w.signature] = g
	}
	if created || version > g.version {
		// A joining watch whose snapshot is ahead of the group's settled
		// state refreshes the whole group; otherwise the group's verdict
		// is already current and the join costs no evaluation.
		g.evaluate(d)
		g.version = version
	}
	g.watches[w] = struct{}{}
	w.setState(g.version, g.verdict)
	st.nWatches++
	if created {
		st.m.fanin(1, 1)
	} else {
		st.m.fanin(1, 0)
	}
	return regResult{state: State{Version: g.version, Verdict: g.verdict}}
}

func (st *dbState) currentDB() *db.Database {
	if st.lastDB == nil && st.lastDBFn != nil {
		st.lastDB = st.lastDBFn()
	}
	return st.lastDB
}

// processChange runs the skip/re-evaluate decision for every
// registration against one change, in version order.
func (st *dbState) processChange(o op) {
	c := o.change
	if c.Version <= st.lastVersion && st.lastVersion != 0 {
		return // duplicate delivery
	}
	if len(st.groups) == 0 {
		// Nobody watches: just advance the tracked snapshot (lazily).
		st.lastVersion = c.Version
		st.lastDBFn = o.dbFn
		st.lastDB = nil
		return
	}
	prev := st.currentDB()
	cur := o.dbFn()

	tr := st.m.tracer.Load().Start("delta", "")
	sp := tr.StartSpan("delta")
	sp.SetAttr("db", st.name).SetAttr("version", fmt.Sprint(c.Version))

	cc := &changeCtx{c: c, prev: prev, prevVersion: st.lastVersion, cur: cur}
	var nSkip, nReeval, nFlip int
	for _, g := range st.groups {
		if c.Version <= g.version {
			// The group was admitted against a snapshot at or past this
			// change (a registration raced ahead of the change stream);
			// its verdict already reflects it.
			continue
		}
		old := g.verdict
		outcome := OutcomeSkipped
		if verdict, carried := cc.carry(g); carried {
			g.verdict = verdict
		} else if cc.decide(g) {
			g.evaluate(cur)
			outcome = OutcomeReevaluated
		}
		// A proven skip settles the verdict at the new version too:
		// advance the published state so heartbeats report progress.
		g.setState(c.Version)
		var triggers []string
		if g.verdict != old {
			outcome = OutcomeFlipped
			triggers = formatBlocks(cc.blocksOf(g))
			if st.m.opt.OnFlip != nil {
				st.m.opt.OnFlip(st.name)
			}
		}
		switch outcome {
		case OutcomeSkipped:
			nSkip++
			st.m.skipped.Add(1)
		case OutcomeReevaluated:
			nReeval++
			st.m.reevaled.Add(1)
		case OutcomeFlipped:
			nFlip++
			st.m.flipped.Add(1)
		}
		st.m.hookReeval(st.name, outcome)
		for w := range g.watches {
			switch {
			case outcome == OutcomeFlipped:
				w.emit(Event{Version: c.Version, From: old, To: g.verdict, Blocks: triggers})
			case w.gapped:
				// The consumer shed flips earlier; the settled state is the
				// next deliverable event, collapsed into a Resync by emit.
				w.emit(Event{Version: c.Version, From: old, To: g.verdict})
			}
		}
	}
	sp.SetAttr("blocks", fmt.Sprint(len(c.Blocks))).
		SetAttr("skipped", fmt.Sprint(nSkip)).
		SetAttr("reevaluated", fmt.Sprint(nReeval)).
		SetAttr("flipped", fmt.Sprint(nFlip))
	sp.End()
	tr.Finish()

	st.lastVersion = c.Version
	st.lastDBFn = o.dbFn
	st.lastDB = cur
}

func (m *Manager) hookReeval(db, outcome string) {
	if m.opt.OnReeval != nil {
		m.opt.OnReeval(db, outcome)
	}
}

// formatBlocks renders trigger blocks as "R(k1,k2)" strings.
func formatBlocks(refs []store.BlockRef) []string {
	if len(refs) == 0 {
		return nil
	}
	out := make([]string, len(refs))
	for i, b := range refs {
		out[i] = fmt.Sprintf("%s(%s)", b.Rel, strings.Join(b.Key, ","))
	}
	return out
}

// regGroup is the shared evaluation state of every watch registered
// with one canonical signature on one database: the prepared plan, the
// static program analysis, the settled verdict, and the recorded
// support set. All fields are worker-owned. Grouping is the watch
// fan-in — N identical subscriptions cost one support set and one
// re-evaluation per change, not N.
type regGroup struct {
	signature string
	prep      *core.Prepared
	// coKeyed groups decide by the carry rule (carry.go) and keep no
	// support: a carried verdict has no recorded run behind it.
	coKeyed bool

	// Static program analysis, set at group creation.
	rels       map[string]bool  // relations the query/program mentions
	candCols   map[string][]int // candidate-source columns per relation
	usesDomain bool

	// Evaluation state.
	verdict bool
	sup     *fo.Support // nil when block-level skipping is unavailable
	version uint64      // version the verdict is settled at

	watches map[*Watch]struct{}
}

func newRegGroup(signature string, prep *core.Prepared) *regGroup {
	g := &regGroup{
		signature: signature,
		prep:      prep,
		rels:      make(map[string]bool),
		candCols:  make(map[string][]int),
		watches:   make(map[*Watch]struct{}),
	}
	_, g.coKeyed = prep.Classification().Query.CoKey()
	if prog := prep.Program(); prog != nil {
		for _, r := range prog.Rels() {
			g.rels[r] = true
		}
		for _, cs := range prog.CandSources() {
			g.candCols[cs.Rel] = append(g.candCols[cs.Rel], cs.Col)
		}
		g.usesDomain = prog.UsesDomain()
	} else {
		for _, r := range prep.QueryRels() {
			g.rels[r] = true
		}
	}
	return g
}

// evaluate recomputes the group verdict and support against d.
// Block-level skipping requires a compiled program that never
// quantifies over the active domain; everything else keeps sup nil and
// degrades to relation-level skipping.
func (g *regGroup) evaluate(d *db.Database) {
	if g.coKeyed {
		g.verdict = g.prep.Certain(d)
		return
	}
	verdict, sup, supported := g.prep.CertainSupport(d)
	g.verdict = verdict
	if supported && !g.usesDomain {
		g.sup = sup
	} else {
		g.sup = nil
	}
}

// setState settles the group at version and fans the published state
// out to every member watch.
func (g *regGroup) setState(version uint64) {
	g.version = version
	for w := range g.watches {
		w.setState(version, g.verdict)
	}
}

// Watch is one registered (query, database) subscription. Verdict
// maintenance lives on the watch's group; the watch itself carries only
// its event queue and published state. Consumers read events from
// Events and may poll State concurrently.
type Watch struct {
	db        string
	signature string

	// Worker-owned delivery state.
	gapped bool

	// Published state, readable concurrently (heartbeats poll it).
	stateMu sync.Mutex
	version uint64
	stVerd  bool

	events chan Event
}

// DB returns the database the watch is registered against.
func (w *Watch) DB() string { return w.db }

// Signature returns the canonical query signature of the watch.
func (w *Watch) Signature() string { return w.signature }

// Events returns the watch's event stream. The channel is closed by
// Unregister, DropDB, and Close.
func (w *Watch) Events() <-chan Event { return w.events }

// State returns the last settled (version, verdict) pair. Safe for
// concurrent use; the serving layer embeds it in heartbeats so a
// consumer that lost events to shedding converges anyway.
func (w *Watch) State() State {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	return State{Version: w.version, Verdict: w.stVerd}
}

func (w *Watch) setState(version uint64, verdict bool) {
	w.stateMu.Lock()
	w.version = version
	w.stVerd = verdict
	w.stateMu.Unlock()
}

// emit delivers an event without ever blocking the worker: when the
// consumer's queue is full the event is dropped and the watch marked
// gapped; the next deliverable event is collapsed into a Resync state
// event so the consumer knows intermediate flips were shed.
func (w *Watch) emit(ev Event) {
	if w.gapped {
		ev = Event{Version: ev.Version, To: ev.To, Resync: true}
	}
	select {
	case w.events <- ev:
		w.gapped = false
	default:
		w.gapped = true
	}
}
