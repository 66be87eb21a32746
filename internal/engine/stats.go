package engine

import "fmt"

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	// CacheHits and CacheMisses count Prepare lookups; CacheEvictions
	// counts plans dropped by the LRU policy; CachedPlans is the current
	// cache population.
	CacheHits, CacheMisses, CacheEvictions uint64
	CachedPlans                            int

	// ResultHits and ResultMisses count Answer lookups in the table of
	// maintained verdicts. A write that touches a relation an entry's
	// query mentions carries a co-keyed entry to the new version by
	// re-checking the written blocks alone (ResultCarried), re-evaluates
	// a watched one, and drops the rest (ResultInvalidations);
	// CachedResults is the population, watched entries included.
	ResultHits, ResultMisses, ResultInvalidations, ResultCarried uint64
	CachedResults                                                int
}

// Stats returns a snapshot of the engine's counters. The plan cache and
// the table of maintained verdicts are read one after the other, so a
// snapshot taken while work is in flight is approximate.
func (e *Engine) Stats() Stats {
	hits, misses, evictions, size := e.cache.counters()
	rhits, rmisses, rinval, rcarried, rsize := e.delta.CacheCounters()
	return Stats{
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,
		CachedPlans:    size,

		ResultHits:          rhits,
		ResultMisses:        rmisses,
		ResultInvalidations: rinval,
		ResultCarried:       rcarried,
		CachedResults:       rsize,
	}
}

// String renders the snapshot as a single human-readable line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"cache: %d hits, %d misses, %d evictions, %d plans | results: %d hits, %d misses, %d invalidations, %d carried, %d cached",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CachedPlans,
		s.ResultHits, s.ResultMisses, s.ResultInvalidations, s.ResultCarried, s.CachedResults)
}
