package engine

import (
	"container/list"
	"sync"

	"cqa/internal/core"
	"cqa/internal/schema"
)

// planCache is a thread-safe LRU cache of prepared shapes keyed by the
// shape key (schema.Query.Shape): every query that differs from another
// only in variable names, literal order and an injective renaming of
// constants shares one entry. Classification and rewriting are
// query-only work — often exponential in the query size — so memoizing
// them per shape lets every query of a seen shape skip straight to
// binding its values and evaluating.
type planCache struct {
	mu  sync.Mutex
	cap int
	// order is the recency list; front = most recently used. Values are
	// *cacheEntry.
	order   *list.List
	entries map[string]*list.Element

	// flights holds the preparations in progress, by shape key;
	// concurrent misses wait on one instead of repeating the work.
	flights map[string]*sync.WaitGroup

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key   string
	shape *core.Shape
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*sync.WaitGroup),
	}
}

// getOrPrepare returns the prepared shape for key, preparing q's shape
// on a miss; hit reports whether it came from the cache. Concurrent
// misses for one shape are single-flighted: the first prepares — outside
// the cache lock, so other shapes are not serialized behind one slow
// rewrite — and the rest wait for it, then find the shape cached and
// count as hits. A failed preparation is neither cached nor shared:
// each waiter retries and reports its own error.
func (c *planCache) getOrPrepare(key string, q schema.Query) (s *core.Shape, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.order.MoveToFront(el)
			s = el.Value.(*cacheEntry).shape
			c.mu.Unlock()
			return s, true, nil
		}
		f, waiting := c.flights[key]
		if !waiting {
			c.misses++
			f = new(sync.WaitGroup)
			f.Add(1)
			c.flights[key] = f
		}
		c.mu.Unlock()
		if !waiting {
			return c.lead(key, f, q)
		}
		f.Wait()
	}
}

// lead prepares q's shape as the flight's owner, publishes it, and
// releases the waiters — also when core.PrepareShape fails or panics.
func (c *planCache) lead(key string, f *sync.WaitGroup, q schema.Query) (s *core.Shape, hit bool, err error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if s != nil {
			c.putLocked(key, s)
		}
		c.mu.Unlock()
		f.Done()
	}()
	s, err = core.PrepareShape(q)
	return s, false, err
}

// putLocked inserts a shape, evicting the least recently used entry when
// over capacity. The caller holds c.mu.
func (c *planCache) putLocked(key string, s *core.Shape) {
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, shape: s})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
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
