package engine

import (
	"cqa/internal/delta"
	"cqa/internal/schema"
)

// WatchHooks are the observability callbacks of the engine's table of
// maintained verdicts. The engine is constructed before the serving
// layer's metrics registry exists, so hooks are installed afterwards
// with SetWatchHooks; every field is optional.
type WatchHooks = delta.Hooks

// SetWatchHooks installs the table's observability hooks. Must be
// called before traffic.
func (e *Engine) SetWatchHooks(h WatchHooks) { e.delta.SetHooks(h) }

// RegisterWatch registers q against the named database for incremental
// certainty maintenance: the returned State is the verdict at the
// version the watch starts from, and every later verdict flip is
// delivered on Watch.Events (bounded queue; slow consumers are
// resynced, never block the writer). snap must be a consistent
// (snapshot, version) capture of dbID, and dbID's changes must be fed
// via ApplyChange.
func (e *Engine) RegisterWatch(q schema.Query, dbID string, snap delta.Snapshot) (*delta.Watch, delta.State, error) {
	if err := e.begin(); err != nil {
		return nil, delta.State{}, err
	}
	defer e.end()
	r, err := e.plan(q)
	if err != nil {
		return nil, delta.State{}, err
	}
	return e.delta.Register(dbID, r.Sig, r.Prepared, snap)
}

// UnregisterWatch removes a watch; its event channel is closed.
func (e *Engine) UnregisterWatch(w *delta.Watch) { e.delta.Unregister(w) }
