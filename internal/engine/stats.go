package engine

import (
	"fmt"
	"sync/atomic"
)

// statsCounters holds the engine's live counters; cache counters live on
// the planCache itself.
type statsCounters struct {
	batches     atomic.Uint64
	items       atomic.Uint64
	sharedItems atomic.Uint64
	errors      atomic.Uint64
	cancelled   atomic.Uint64
	busyWorkers atomic.Int64
	peakBusy    atomic.Int64
}

func (s *statsCounters) observePeak(busy int64) {
	for {
		peak := s.peakBusy.Load()
		if busy <= peak || s.peakBusy.CompareAndSwap(peak, busy) {
			return
		}
	}
}

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

	// Batches and BatchItems count CertainBatch calls and the items they
	// completed; BatchErrors counts items that returned an error
	// (including recovered panics) and CancelledItems the items skipped
	// because the batch context was cancelled. BatchSharedItems counts
	// items answered by another item's shared-pass evaluation (grouped by
	// identical canonical signature and database snapshot) instead of an
	// evaluation of their own.
	Batches, BatchItems, BatchErrors, CancelledItems uint64
	BatchSharedItems                                 uint64

	// Workers is the configured pool width. BusyWorkers is the number of
	// workers evaluating an item at snapshot time; PeakBusyWorkers the
	// maximum ever observed — together they show pool utilization.
	Workers         int
	BusyWorkers     int
	PeakBusyWorkers int
}

// Stats returns a snapshot of the engine's counters. Counters are read
// individually (not under one lock), so a snapshot taken while work is in
// flight is approximate.
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
		Batches:             e.stats.batches.Load(),
		BatchItems:          e.stats.items.Load(),
		BatchSharedItems:    e.stats.sharedItems.Load(),
		BatchErrors:         e.stats.errors.Load(),
		CancelledItems:      e.stats.cancelled.Load(),
		Workers:             e.opt.Workers,
		BusyWorkers:         int(e.stats.busyWorkers.Load()),
		PeakBusyWorkers:     int(e.stats.peakBusy.Load()),
	}
}

// String renders the snapshot as a single human-readable line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"cache: %d hits, %d misses, %d evictions, %d plans | results: %d hits, %d misses, %d invalidations, %d carried, %d cached | batch: %d batches, %d items, %d shared, %d errors, %d cancelled | workers: %d/%d busy (peak %d)",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CachedPlans,
		s.ResultHits, s.ResultMisses, s.ResultInvalidations, s.ResultCarried, s.CachedResults,
		s.Batches, s.BatchItems, s.BatchSharedItems, s.BatchErrors, s.CancelledItems,
		s.BusyWorkers, s.Workers, s.PeakBusyWorkers)
}
