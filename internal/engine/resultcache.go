package engine

import (
	"container/list"
	"sync"

	"cqa/internal/db"
	"cqa/internal/delta"
	"cqa/internal/schema"
	"cqa/internal/store"
)

// resultCache memoizes CERTAINTY answers for named, versioned databases
// (the store layer): entries are keyed by (canonical query signature,
// database id) and carry the store version they are valid at plus their
// query. Invalidation is incremental — the block structure of the paper
// localizes a write to a few blocks, and a CERTAINTY answer can only
// change when the query mentions a written relation. So on a write:
//
//   - entries whose query mentions no touched relation are advanced to
//     the new version and stay hits — an irrelevant write costs nothing;
//   - entries of co-keyed queries are carried by the block-local rule
//     (delta.Carry): the written blocks are re-checked, not the
//     database, and the entry stays a hit with the verdict that holds at
//     the new version (counted as carried);
//   - the rest — queries that are not co-keyed, changes reported without
//     block detail, and the one case the rule leaves open — are dropped
//     (counted as invalidations) and re-evaluated by their next reader.
//
// Writes must be reported in version order (applyChange is driven by the
// store's OnApply hook, which runs under the store's writer lock).
// Lookups and inserts carry the version of the snapshot they evaluated
// against; an insert computed against a version that is no longer
// current is discarded, so a slow reader racing a writer can never
// plant a stale answer.
type resultCache struct {
	mu  sync.Mutex
	cap int
	// order is the recency list; front = most recently used. Values are
	// *resultEntry.
	order   *list.List
	entries map[resultKey]*list.Element
	// byDB indexes entries per database id for O(|entries of db|)
	// invalidation and drop.
	byDB map[string]map[resultKey]*list.Element
	// current is the latest version applyChange (or a first insert)
	// reported per database id.
	current map[string]uint64

	// onInvalidate is invoked once per invalidated entry with the
	// touched relation that triggered the invalidation (the first
	// matching relation of the write's touched set). Invoked outside
	// the cache lock.
	onInvalidate func(rel string)
	// onCarry is invoked once per write that carried entries, with their
	// number. Invoked outside the cache lock.
	onCarry func(n int)

	hits, misses, invalidations, carried uint64
}

type resultKey struct {
	sig  string
	dbID string
}

type resultEntry struct {
	key     resultKey
	version uint64
	certain bool
	// q is the query answered; a write touching none of its relations
	// cannot change the answer.
	q schema.Query
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[resultKey]*list.Element),
		byDB:    make(map[string]map[resultKey]*list.Element),
		current: make(map[string]uint64),
	}
}

// get returns the cached answer for (sig, dbID) at exactly version.
func (c *resultCache) get(sig, dbID string, version uint64) (bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[resultKey{sig, dbID}]
	if !ok || el.Value.(*resultEntry).version != version {
		c.misses++
		return false, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*resultEntry).certain, true
}

// put records an answer computed against the snapshot at version. It is
// discarded when a write has moved the database past that version — the
// answer may already be stale.
func (c *resultCache) put(sig, dbID string, version uint64, q schema.Query, certain bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.current[dbID]; ok && cur != version {
		return
	}
	c.current[dbID] = version
	key := resultKey{sig, dbID}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*resultEntry)
		e.version, e.certain = version, certain
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&resultEntry{key: key, version: version, certain: certain, q: q})
	c.entries[key] = el
	if c.byDB[dbID] == nil {
		c.byDB[dbID] = make(map[resultKey]*list.Element)
	}
	c.byDB[dbID][key] = el
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.removeLocked(back.Value.(*resultEntry).key)
	}
}

// carryWork is one entry whose verdict the carry rule must decide by
// evaluation, between the two locked phases of applyChange.
type carryWork struct {
	e       *resultEntry
	old     bool
	keys    [][]string
	trigger string

	verdict, known bool
}

// applyChange advances dbID to ch.Version (see the type comment for what
// happens to its entries). prev and cur are the database before and
// after the change, per shard. evaluator returns what decides a query
// on the carry rule's sub-databases; those evaluations run between two
// holds of the lock, so readers are never stalled behind them. An entry
// stays at its old version meanwhile: a reader of the new version misses
// and evaluates for itself, and the carried verdict is then dropped in
// favour of the one that reader put.
func (c *resultCache) applyChange(dbID string, ch store.Change, prevVersion uint64, prev, cur []*db.Database,
	evaluator func(schema.Query) (func(*db.Database) bool, error)) {
	var triggers []string
	var work []carryWork
	carried := 0
	c.mu.Lock()
	c.current[dbID] = ch.Version
	for key, el := range c.byDB[dbID] {
		e := el.Value.(*resultEntry)
		trigger := ""
		for _, r := range ch.Rels {
			if _, ok := e.q.AtomByRel(r); ok {
				trigger = r
				break
			}
		}
		if trigger == "" {
			e.version = ch.Version
			continue
		}
		// The rule carries a verdict known to hold on prev.
		if keys, ok := delta.DirtyKeys(e.q, ch); ok && e.version == prevVersion {
			if len(keys) == 0 {
				e.version = ch.Version
				carried++
			} else {
				work = append(work, carryWork{e: e, old: e.certain, keys: keys, trigger: trigger})
			}
			continue
		}
		c.removeLocked(key)
		c.invalidations++
		triggers = append(triggers, trigger)
	}
	c.mu.Unlock()

	for i := range work {
		w := &work[i]
		if certain, err := evaluator(w.e.q); err == nil {
			w.verdict, w.known = delta.Carry(w.e.q, w.old, w.keys, prev, cur, certain)
		}
	}

	c.mu.Lock()
	for i := range work {
		w := &work[i]
		el, ok := c.entries[w.e.key]
		if !ok || el.Value.(*resultEntry) != w.e || w.e.version != prevVersion {
			continue // evicted, dropped with its database, or re-put by a reader
		}
		if w.known {
			w.e.certain, w.e.version = w.verdict, ch.Version
			carried++
		} else {
			c.removeLocked(w.e.key)
			c.invalidations++
			triggers = append(triggers, w.trigger)
		}
	}
	c.carried += uint64(carried)
	onInvalidate, onCarry := c.onInvalidate, c.onCarry
	c.mu.Unlock()
	if onInvalidate != nil {
		for _, r := range triggers {
			onInvalidate(r)
		}
	}
	if onCarry != nil && carried > 0 {
		onCarry(carried)
	}
}

// setHooks installs the invalidation and carry callbacks.
func (c *resultCache) setHooks(onInvalidate func(rel string), onCarry func(n int)) {
	c.mu.Lock()
	c.onInvalidate, c.onCarry = onInvalidate, onCarry
	c.mu.Unlock()
}

// dropDB forgets every entry and the version watermark of dbID (the
// database was deleted or replaced wholesale).
func (c *resultCache) dropDB(dbID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.byDB[dbID] {
		c.removeLocked(key)
	}
	delete(c.current, dbID)
}

func (c *resultCache) removeLocked(key resultKey) {
	el, ok := c.entries[key]
	if !ok {
		return
	}
	c.order.Remove(el)
	delete(c.entries, key)
	if m := c.byDB[key.dbID]; m != nil {
		delete(m, key)
		if len(m) == 0 {
			delete(c.byDB, key.dbID)
		}
	}
}

// counters snapshots the hit/miss/invalidation/carry counters and size.
func (c *resultCache) counters() (hits, misses, invalidations, carried uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations, c.carried, c.order.Len()
}
