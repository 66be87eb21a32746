// Package delta is the one table of maintained verdicts: for each
// (canonical signature, database) pair it keeps "the verdict of q on the
// database, settled at version v". A read is a look-up, and a miss
// evaluates and inserts. A watch is a subscription on an entry, pinned
// against the LRU eviction that bounds the entries nobody watches. A
// write (Advance) runs exactly one decision per entry of the written
// database, on the writer's goroutine, in version order, by the same
// three rules whether the entry is watched or not:
//
//   - advance, when the write touched no relation the query mentions,
//     or no dirty key of a co-keyed query;
//   - carry, for co-keyed queries, by the block-local rule (carry.go):
//     the written blocks are re-checked, not the database;
//   - re-evaluate otherwise: a subscribed entry is evaluated afresh on
//     the new version, an unsubscribed one is dropped and its next
//     reader re-evaluates.
//
// Verdict flips are published to the subscribers' bounded event queues
// before Advance returns.
//
// Re-evaluation runs the query's prepared plan on the whole database:
// the compiled rewriting for FO queries, the planner's graph deciders or
// the search over block choices (naive.RepairSearch, exponential in the
// worst case) for the rest. It is exact but costs the table, not the
// write; only co-keyed queries have a rule proportional to the write.
// See docs/DELTA.md.
package delta

import (
	"container/list"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/obs"
	"cqa/internal/store"
)

// Outcome labels what a change meant for one subscribed entry; the
// values match the delta_reeval_total{outcome} metric.
const (
	OutcomeSkipped     = "skipped"
	OutcomeReevaluated = "reevaluated"
	OutcomeFlipped     = "flipped"
)

// DefaultWatchBuffer is the per-watch event queue capacity; a consumer
// that falls behind loses intermediate flips and is resynced with a
// state event (Event.Resync).
const DefaultWatchBuffer = 64

// DefaultCapacity bounds the entries no watch subscribes to; past it
// the least recently used is evicted.
const DefaultCapacity = 4096

var errGone = errors.New("delta: database dropped or manager closed")

// Options has no fields: a Manager's capacities are the constants
// above. It stays as New's parameter for New's existing callers.
type Options struct{}

// Hooks are a Manager's observability callbacks; every field is
// optional.
type Hooks struct {
	// OnReeval is invoked once per (change, subscribed entry) decision
	// with the outcome (Outcome*).
	OnReeval func(db, outcome string)
	// OnFanin is invoked whenever the watch population changes, with
	// the watch count and the (smaller or equal) subscribed-entry count;
	// watches − entries is the number of subscriptions answered by
	// another subscription's evaluation.
	OnFanin func(watches, entries int)
	// OnFlip is invoked once per published verdict flip.
	OnFlip func(db string)
	// OnInvalidate is invoked once per entry a write dropped, with the
	// touched relation that triggered it.
	OnInvalidate func(rel string)
	// OnCarry is invoked once per write that carried entries to its
	// version by the carry rule, with their number.
	OnCarry func(n int)
	// Tracer records one "delta" trace per change that reached a
	// subscribed entry.
	Tracer *obs.Tracer
}

// Snapshot is one version of a database, as a store publishes it.
type Snapshot = store.Snapshot

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

// Manager is the table. Its lock guards the entries, the LRU order and
// the counters, and is never held across an evaluation; each database
// also has an apply mutex, taken first, that serialises its writer
// side — Advance, Register, Unregister and Close.
type Manager struct {
	mu     sync.Mutex
	hooks  Hooks
	dbs    map[string]*dbState
	lru    *list.List // unsubscribed entries, most recently used first
	closed bool

	hits, misses, invalidations, carried uint64
	watches, subscribed                  int
}

// dbState is one database's part of the table.
type dbState struct {
	name  string
	apply sync.Mutex
	// Under Manager.mu: the version last applied or first seen, its
	// snapshot, and the entries by signature.
	version uint64
	cur     Snapshot
	entries map[string]*entry
}

// entry is one maintained verdict and the prepared plan that decides
// it: re-evaluation and the carry rule run prep. An unsubscribed entry
// sits in the LRU list; a subscribed one holds its watches and is
// pinned.
type entry struct {
	st      *dbState
	sig     string
	prep    *core.Prepared
	verdict bool
	version uint64
	el      *list.Element
	// watches is nil unless the entry is subscribed. Every watch of one
	// signature on one database shares the entry — N identical
	// subscriptions cost one decision per change, not N. The map is
	// touched only under the database's apply mutex.
	watches map[*Watch]struct{}
}

// New builds a Manager.
func New(Options) *Manager {
	return &Manager{dbs: make(map[string]*dbState), lru: list.New()}
}

// SetHooks installs the observability callbacks. Call it before
// traffic: the serving layer's registry exists only after the manager.
func (m *Manager) SetHooks(h Hooks) {
	m.mu.Lock()
	m.hooks = h
	m.mu.Unlock()
}

// CacheCounters reports the look-up hits and misses, the entries writes
// dropped and carried, and the table's population.
func (m *Manager) CacheCounters() (hits, misses, invalidations, carried uint64, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.invalidations, m.carried, m.lru.Len() + m.subscribed
}

func (m *Manager) faninLocked() {
	if m.hooks.OnFanin != nil {
		m.hooks.OnFanin(m.watches, m.subscribed)
	}
}

// stateLocked returns dbName's state, created at snap when absent, or
// nil once the manager is closed.
func (m *Manager) stateLocked(dbName string, snap Snapshot) *dbState {
	if m.closed {
		return nil
	}
	st := m.dbs[dbName]
	if st == nil {
		st = &dbState{name: dbName, version: snap.Version, cur: snap, entries: make(map[string]*entry)}
		m.dbs[dbName] = st
	}
	return st
}

// lock is stateLocked with the state's apply mutex and m.mu held on
// return; nil, with neither held, when Close got there first.
func (m *Manager) lock(dbName string, snap Snapshot) *dbState {
	m.mu.Lock()
	st := m.stateLocked(dbName, snap)
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	st.apply.Lock()
	m.mu.Lock()
	if m.dbs[dbName] != st {
		m.mu.Unlock()
		st.apply.Unlock()
		return nil
	}
	return st
}

// Get returns the verdict of prep's query, under its signature, on
// dbName at snap's version. On a miss it runs eval, outside the table
// lock, and inserts the result with prep — unless a write has moved the
// database past that version meanwhile, Close dropped the state the
// look-up saw, or the entry is subscribed, and so maintained by its
// subscription.
func (m *Manager) Get(dbName, signature string, prep *core.Prepared, snap Snapshot, eval func() bool) (verdict, hit bool) {
	version := snap.Version
	m.mu.Lock()
	st := m.stateLocked(dbName, snap)
	if st == nil {
		m.mu.Unlock()
		return eval(), false
	}
	if e := st.entries[signature]; e != nil && e.version == version {
		m.hits++
		if e.el != nil {
			m.lru.MoveToFront(e.el)
		}
		verdict = e.verdict
		m.mu.Unlock()
		return verdict, true
	}
	m.misses++
	m.mu.Unlock()
	verdict = eval()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dbs[dbName] != st || st.version != version {
		return verdict, false
	}
	e := st.entries[signature]
	switch {
	case e == nil:
		e = &entry{st: st, sig: signature, prep: prep}
		e.el = m.lru.PushFront(e)
		st.entries[signature] = e
		m.evictLocked()
	case e.watches != nil:
		return verdict, false
	default:
		m.lru.MoveToFront(e.el)
	}
	e.verdict, e.version = verdict, version
	return verdict, false
}

func (m *Manager) evictLocked() {
	for m.lru.Len() > DefaultCapacity {
		m.removeLocked(m.lru.Back().Value.(*entry))
	}
}

func (m *Manager) removeLocked(e *entry) {
	m.lru.Remove(e.el)
	delete(e.st.entries, e.sig)
}

// Decision rules of one entry across one change.
const (
	ruleAdvance = iota // no mentioned relation written, or no dirty key
	ruleCarry          // the carry rule over the dirty keys
	ruleReeval         // re-evaluation, or a drop when unsubscribed
)

// step is one entry's decision between the locked phases of Advance.
type step struct {
	e            *entry
	rule         int
	keys         [][]string
	trigger      string
	old, verdict bool
	outcome      string // subscribed entries: Outcome*
}

// Apply is Advance for a caller that resolves the database after c on
// demand.
func (m *Manager) Apply(dbName string, c store.Change, dbFn func() *db.Database) {
	m.Advance(dbName, c, Snapshot{DB: dbFn(), Version: c.Version})
}

// Advance moves dbName across the write c to cur (cur.Version is
// c.Version; the snapshot before c is the one the manager saw last) and
// runs one decision per entry (see the package comment). Evaluations
// run between two holds of the table lock, so readers never wait on
// them; an entry stays at the previous version meanwhile, and a reader
// of cur misses and evaluates for itself. Calls must arrive in version
// order per database.
func (m *Manager) Advance(dbName string, c store.Change, cur Snapshot) {
	st := m.lock(dbName, cur)
	if st == nil {
		return
	}
	defer st.apply.Unlock()
	prev := st.cur
	if c.Version > st.version {
		st.version, st.cur = c.Version, cur
	}
	h := m.hooks
	var work []*step
	var dropped []string
	carried, watched := 0, false
	for _, e := range st.entries {
		if e.version >= c.Version {
			continue // settled at or past c by a registration
		}
		s := &step{e: e, rule: ruleReeval, old: e.verdict, verdict: e.verdict}
		if q := e.prep.Query(); e.version == prev.Version {
			// An entry that missed a change has no verdict to carry, and
			// its drop is no invalidation of this write's.
			for _, r := range c.Rels {
				if _, ok := q.AtomByRel(r); ok {
					s.trigger = r
					break
				}
			}
			if s.trigger == "" {
				s.rule = ruleAdvance
			} else if keys, ok := DirtyKeys(q, c); ok && len(keys) == 0 {
				s.rule = ruleAdvance
				carried++
			} else if ok {
				s.rule, s.keys = ruleCarry, keys
			}
		}
		switch {
		case e.watches != nil:
			watched = true
			work = append(work, s)
		case s.rule == ruleCarry:
			work = append(work, s)
		case s.rule == ruleAdvance:
			e.version = c.Version
		default:
			m.removeLocked(e)
			if s.trigger != "" {
				dropped = append(dropped, s.trigger)
			}
		}
	}
	m.mu.Unlock()

	var tr *obs.Trace
	if watched {
		tr = h.Tracer.Start("delta", "")
	}
	sp := tr.StartSpan("delta")
	for _, s := range work {
		e := s.e
		if s.rule == ruleCarry {
			var known bool
			s.verdict, known = Carry(e.prep.Query(), s.old, s.keys, prev.DB, cur.DB, e.prep.CertainScratch)
			if !known {
				s.rule = ruleReeval
			}
		}
		if e.watches != nil {
			s.outcome = OutcomeSkipped
			if s.rule == ruleReeval {
				s.verdict, s.outcome = e.prep.Certain(cur.DB), OutcomeReevaluated
			}
			if s.verdict != s.old {
				s.outcome = OutcomeFlipped
			}
		}
	}

	m.mu.Lock()
	n := make(map[string]int)
	for _, s := range work {
		e := s.e
		switch {
		case e.watches == nil && (st.entries[e.sig] != e || e.version != prev.Version):
			continue // evicted, or re-put by a reader of cur
		case e.watches == nil && s.rule == ruleReeval:
			m.removeLocked(e)
			dropped = append(dropped, s.trigger)
			continue
		case s.rule == ruleCarry:
			carried++
		}
		e.verdict, e.version = s.verdict, c.Version
		if e.watches != nil {
			n[s.outcome]++
		}
	}
	m.carried += uint64(carried)
	m.invalidations += uint64(len(dropped))
	m.mu.Unlock()

	for _, s := range work {
		if s.e.watches != nil {
			publish(h, st.name, c, s)
		}
	}
	for _, r := range dropped {
		if h.OnInvalidate != nil {
			h.OnInvalidate(r)
		}
	}
	if carried > 0 && h.OnCarry != nil {
		h.OnCarry(carried)
	}
	if sp != nil {
		sp.SetAttr("db", st.name).SetAttr("version", fmt.Sprint(c.Version)).
			SetAttr("blocks", fmt.Sprint(len(c.Blocks))).
			SetAttr("skipped", fmt.Sprint(n[OutcomeSkipped])).
			SetAttr("reevaluated", fmt.Sprint(n[OutcomeReevaluated])).
			SetAttr("flipped", fmt.Sprint(n[OutcomeFlipped]))
		sp.End()
	}
	tr.Finish()
}

// publish settles a subscribed entry's watches at c.Version: the
// outcome hook, then a flip event, or the settled state to a watch that
// shed events earlier.
func publish(h Hooks, dbName string, c store.Change, s *step) {
	var triggers []string
	if s.outcome == OutcomeFlipped {
		triggers = s.e.triggers(c)
		if h.OnFlip != nil {
			h.OnFlip(dbName)
		}
	}
	if h.OnReeval != nil {
		h.OnReeval(dbName, s.outcome)
	}
	for w := range s.e.watches {
		w.setState(c.Version, s.verdict)
		if s.outcome == OutcomeFlipped || w.gapped {
			// A watch that shed flips earlier gets the settled state as its
			// next event, collapsed into a Resync by emit.
			w.emit(Event{Version: c.Version, From: s.old, To: s.verdict, Blocks: triggers})
		}
	}
}

// triggers renders c's dirty blocks of e's relations as "R(k1,k2)": the
// trigger blocks of a flip event.
func (e *entry) triggers(c store.Change) (out []string) {
	for _, b := range c.Blocks {
		if _, ok := e.prep.Query().AtomByRel(b.Rel); ok {
			out = append(out, fmt.Sprintf("%s(%s)", b.Rel, strings.Join(b.Key, ",")))
		}
	}
	return out
}

// Register subscribes a new watch to the entry of (signature, dbName).
// The returned State is the verdict at the version the watch starts
// from, and every later flip is delivered on Watch.Events. snap must be
// a consistent (snapshot, version) capture; when a later change has
// already been applied, the entry is evaluated at that later version
// instead. Register holds the database's apply mutex across its one
// evaluation, so no flip after the returned State.Version is lost or
// reported twice.
//
// A watch whose signature already has a subscribed entry on dbName
// joins it without an evaluation (fan-in): it adopts the entry's
// settled verdict and shares its future decisions.
func (m *Manager) Register(dbName, signature string, prep *core.Prepared, snap Snapshot) (*Watch, State, error) {
	st := m.lock(dbName, snap)
	if st == nil {
		return nil, State{}, errGone
	}
	defer st.apply.Unlock()
	defer m.mu.Unlock()
	if st.version > snap.Version {
		snap = st.cur
	}
	if e := st.entries[signature]; e == nil || e.watches == nil {
		m.mu.Unlock()
		verdict := prep.Certain(snap.DB)
		m.mu.Lock()
		e = st.entries[signature]
		if e == nil {
			e = &entry{st: st, sig: signature, prep: prep}
			st.entries[signature] = e
		} else if e.el != nil {
			m.lru.Remove(e.el)
			e.el = nil
		}
		e.watches, e.verdict, e.version = make(map[*Watch]struct{}), verdict, snap.Version
		m.subscribed++
	}
	e := st.entries[signature]
	w := &Watch{st: st, signature: signature, events: make(chan Event, DefaultWatchBuffer)}
	e.watches[w] = struct{}{}
	w.setState(e.version, e.verdict)
	m.watches++
	m.faninLocked()
	return w, State{Version: e.version, Verdict: e.verdict}, nil
}

// Unregister removes a watch and closes its event channel. The last
// watch to leave an entry leaves it in the table as an unsubscribed
// entry. Unregistering twice, or after Close, is a no-op.
func (m *Manager) Unregister(w *Watch) {
	if w == nil {
		return
	}
	st := w.st
	st.apply.Lock()
	defer st.apply.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	e := st.entries[w.signature]
	if m.dbs[st.name] != st || e == nil || e.watches == nil {
		return
	}
	if _, ok := e.watches[w]; !ok {
		return
	}
	delete(e.watches, w)
	close(w.events)
	m.watches--
	if len(e.watches) == 0 {
		e.watches = nil
		m.subscribed--
		e.el = m.lru.PushFront(e)
		m.evictLocked()
	}
	m.faninLocked()
}

// drop removes st from the table. The channels close under the table
// lock, so a consumer that observes the close and asks FanIn sees the
// settled population.
func (m *Manager) drop(st *dbState) {
	st.apply.Lock()
	defer st.apply.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dbs[st.name] != st {
		return
	}
	delete(m.dbs, st.name)
	for _, e := range st.entries {
		if e.watches == nil {
			m.lru.Remove(e.el)
			continue
		}
		for w := range e.watches {
			close(w.events)
			m.watches--
		}
		m.subscribed--
	}
	m.faninLocked()
}

// Quiesce returns at once: Advance publishes before it returns, so
// nothing is ever queued. Kept for callers written against a queue.
func (m *Manager) Quiesce(dbName string) {}

// Close drops every database and closes every watch; later calls find
// no table.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	states := make([]*dbState, 0, len(m.dbs))
	for _, st := range m.dbs {
		states = append(states, st)
	}
	m.mu.Unlock()
	for _, st := range states {
		m.drop(st)
	}
}

// Watch is one subscription to an entry. It carries only its event
// queue and published state; consumers read events from Events and may
// poll State concurrently.
type Watch struct {
	st        *dbState
	signature string

	// Delivery state, under the database's apply mutex.
	gapped bool

	// Published state, readable concurrently (heartbeats poll it): the
	// version shifted left by one, above the verdict bit.
	state atomic.Uint64

	events chan Event
}

// Signature returns the canonical query signature of the watch.
func (w *Watch) Signature() string { return w.signature }

// Events returns the watch's event stream. The channel is closed by
// Unregister and Close.
func (w *Watch) Events() <-chan Event { return w.events }

// State returns the last settled (version, verdict) pair. Safe for
// concurrent use; the serving layer embeds it in heartbeats so a
// consumer that lost events to shedding converges anyway.
func (w *Watch) State() State {
	s := w.state.Load()
	return State{Version: s >> 1, Verdict: s&1 == 1}
}

func (w *Watch) setState(version uint64, verdict bool) {
	s := version << 1
	if verdict {
		s |= 1
	}
	w.state.Store(s)
}

// emit delivers an event without ever blocking the writer: when the
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
