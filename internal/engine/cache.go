package engine

import (
	"container/list"
	"sync"

	"cqa/internal/core"
	"cqa/internal/schema"
)

// planCache is a thread-safe LRU cache of prepared plans keyed by the
// canonical query signature (schema.Query.Signature). Classification and
// rewriting are query-only work — often exponential in the query size —
// so memoizing them lets repeated queries skip straight to evaluation.
type planCache struct {
	mu  sync.Mutex
	cap int
	// order is the recency list; front = most recently used. Values are
	// *cacheEntry.
	order   *list.List
	entries map[string]*list.Element

	// flights holds the preparations in progress, by signature;
	// concurrent misses wait on one instead of repeating the work.
	flights map[string]*sync.WaitGroup

	hits, misses, evictions uint64
}

type cacheEntry struct {
	sig  string
	plan *core.Prepared
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*sync.WaitGroup),
	}
}

// getOrPrepare returns the plan for sig, preparing q on a miss; hit
// reports whether the plan came from the cache. Concurrent misses for
// one signature are single-flighted: the first prepares — outside the
// cache lock, so other signatures are not serialized behind one slow
// rewrite — and the rest wait for it, then find the plan cached and
// count as hits. A failed preparation is neither cached nor shared:
// each waiter retries and reports its own error.
func (c *planCache) getOrPrepare(sig string, q schema.Query) (p *core.Prepared, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[sig]; ok {
			c.hits++
			c.order.MoveToFront(el)
			p = el.Value.(*cacheEntry).plan
			c.mu.Unlock()
			return p, true, nil
		}
		f, waiting := c.flights[sig]
		if !waiting {
			c.misses++
			f = new(sync.WaitGroup)
			f.Add(1)
			c.flights[sig] = f
		}
		c.mu.Unlock()
		if !waiting {
			return c.lead(sig, f, q)
		}
		f.Wait()
	}
}

// lead prepares q as the flight's owner, publishes the plan, and
// releases the waiters — also when core.Prepare fails or panics.
func (c *planCache) lead(sig string, f *sync.WaitGroup, q schema.Query) (p *core.Prepared, hit bool, err error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, sig)
		if p != nil {
			c.putLocked(sig, p)
		}
		c.mu.Unlock()
		f.Done()
	}()
	p, err = core.Prepare(q)
	return p, false, err
}

// putLocked inserts a plan, evicting the least recently used entry when
// over capacity. The caller holds c.mu.
func (c *planCache) putLocked(sig string, plan *core.Prepared) {
	c.entries[sig] = c.order.PushFront(&cacheEntry{sig: sig, plan: plan})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).sig)
		c.evictions++
	}
}

// len returns the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// counters snapshots the hit/miss/eviction counters.
func (c *planCache) counters() (hits, misses, evictions uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.order.Len()
}
