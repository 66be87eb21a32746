package engine

import (
	"sync/atomic"

	"cqa/internal/delta"
	"cqa/internal/obs"
	"cqa/internal/schema"
)

// WatchHooks are the observability callbacks of the engine's delta
// layer. The engine is constructed before the serving layer's metrics
// registry exists, so hooks are installed afterwards with
// SetWatchHooks; every field is optional.
type WatchHooks struct {
	// OnReeval is invoked once per (change, registration) decision with
	// the outcome (delta.Outcome*).
	OnReeval func(db, outcome string)
	// OnFlip is invoked once per published verdict flip.
	OnFlip func(db string)
	// OnFanin is invoked whenever the watch population changes, with the
	// total watch count and the distinct (signature, database) group
	// count backing them; watches − groups is the number of
	// subscriptions sharing another subscription's evaluation.
	OnFanin func(watches, groups int)
	// OnResultInvalidate is invoked once per result-cache entry
	// invalidated by a write, with the touched relation that triggered
	// the invalidation.
	OnResultInvalidate func(rel string)
	// OnResultCarry is invoked once per write with the number of
	// result-cache entries it carried to the new version instead of
	// invalidating (zero is not reported).
	OnResultCarry func(n int)
	// Tracer records a "delta" span per processed change.
	Tracer *obs.Tracer
}

// SetWatchHooks installs the delta observability hooks. Must be called
// before traffic; hooks installed later apply to subsequent changes.
func (e *Engine) SetWatchHooks(h WatchHooks) {
	e.hooks.Store(&h)
	e.delta.SetTracer(h.Tracer)
	e.results.setHooks(h.OnResultInvalidate, h.OnResultCarry)
}

// newDeltaManager builds the engine's delta manager. The manager's
// hooks dereference the engine's installable hook set, so the manager
// can be created in New, before SetWatchHooks runs.
func newDeltaManager(e *Engine) *delta.Manager {
	return delta.New(delta.Options{
		OnReeval: func(db, outcome string) {
			if h := e.hooks.Load(); h != nil && h.OnReeval != nil {
				h.OnReeval(db, outcome)
			}
		},
		OnFlip: func(db string) {
			if h := e.hooks.Load(); h != nil && h.OnFlip != nil {
				h.OnFlip(db)
			}
		},
		OnFanin: func(watches, groups int) {
			if h := e.hooks.Load(); h != nil && h.OnFanin != nil {
				h.OnFanin(watches, groups)
			}
		},
	})
}

// hooksPtr is the engine-side storage for WatchHooks.
type hooksPtr = atomic.Pointer[WatchHooks]

// RegisterWatch registers q against the named database for incremental
// certainty maintenance: the returned State is the verdict at the
// version the watch starts from, and every later verdict flip is
// delivered on Watch.Events (bounded queue; slow consumers are
// resynced, never block the delta worker). snap must be a consistent
// (snapshot, version) capture of dbID, and dbID's changes must be fed
// via ApplyChange.
func (e *Engine) RegisterWatch(q schema.Query, dbID string, snap delta.Snapshot) (*delta.Watch, delta.State, error) {
	if err := e.begin(); err != nil {
		return nil, delta.State{}, err
	}
	defer e.end()
	r, err := e.Plan(q)
	if err != nil {
		return nil, delta.State{}, err
	}
	return e.delta.Register(dbID, r.Sig, r.Prepared, snap)
}

// UnregisterWatch removes a watch; its event channel is closed.
func (e *Engine) UnregisterWatch(w *delta.Watch) { e.delta.Unregister(w) }

// WatchFanIn reports the delta layer's registration population: total
// watches and the distinct (signature, database) groups backing them.
func (e *Engine) WatchFanIn() (watches, groups int) { return e.delta.FanIn() }
