package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"cqa/internal/metrics"
	"cqa/internal/store"
)

// Follower turns a read-only server into a WAL-shipping replica of a
// primary: it discovers the primary's databases via GET /v1/shards,
// opens one following GET /v1/wal/stream per database, and applies each
// stream through a store.Replica whose store it adopts into the
// server's set. Reads on the follower are served from the replica
// snapshots; every applied batch reaches the engine's result cache
// through the store's OnApply hook, as a local write would, and a
// snapshot-bootstrap reset (the replica diverged or fell past the
// primary's retention floor) drops the database's cached answers
// entirely — resets may reuse version numbers of a divergent
// incarnation, so exact-version caching alone is not enough there.
//
// A dead primary degrades the follower to serving its last applied
// state; the streams reconnect with backoff and resume (or bootstrap)
// when the primary returns. See docs/SHARDING.md.
type Follower struct {
	primary string
	id      string
	srv     *Server
	client  *http.Client
	logf    func(format string, v ...any)

	mu      sync.Mutex
	tracked map[string]*store.Replica

	wg sync.WaitGroup
}

// FollowerOptions configures NewFollower.
type FollowerOptions struct {
	// Primary is the base URL of the primary server.
	Primary string
	// ID registers this follower in the primary's WAL retention floor;
	// empty selects "follower".
	ID string
	// Server is the local read-only serving side; replicated databases
	// are adopted into its store set.
	Server *Server
	// Logf receives connection lifecycle messages; nil discards them.
	Logf func(format string, v ...any)
}

// followerRetry is the follower's reconnect backoff; discovery runs
// every four of them.
const followerRetry = 500 * time.Millisecond

// NewFollower builds a follower; Run starts it. Its client has no
// overall timeout: streams are long-lived by design.
func NewFollower(opt FollowerOptions) *Follower {
	f := &Follower{
		primary: opt.Primary,
		id:      opt.ID,
		srv:     opt.Server,
		client:  &http.Client{},
		logf:    opt.Logf,
		tracked: make(map[string]*store.Replica),
	}
	if f.id == "" {
		f.id = "follower"
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	return f
}

// Run discovers the primary's databases, starts one stream per
// database, and keeps re-discovering (new databases appear on the
// primary) until ctx is cancelled. It returns after every stream
// goroutine has stopped.
func (f *Follower) Run(ctx context.Context) {
	for {
		if topo, err := f.topology(ctx); err == nil {
			for _, d := range topo.Databases {
				f.track(ctx, d)
			}
			f.updateLag(topo)
		} else if ctx.Err() == nil {
			f.logf("follower: discovery: %v", err)
		}
		select {
		case <-ctx.Done():
			f.wg.Wait()
			return
		case <-time.After(followerRetry * 4):
		}
	}
}

// topology fetches the primary's GET /v1/shards document.
func (f *Follower) topology(ctx context.Context) (*ShardsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/shards", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("primary /v1/shards: status %d", resp.StatusCode)
	}
	var topo ShardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		return nil, err
	}
	return &topo, nil
}

// updateLag refreshes the follower_lag_versions{db} gauge on every
// discovery tick: how many versions each tracked database is
// behind the primary's advertised topology. A caught-up (or recovered)
// follower reads 0.
func (f *Follower) updateLag(topo *ShardsResponse) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range topo.Databases {
		r, ok := f.tracked[d.Name]
		if !ok {
			continue
		}
		lag := int64(d.Version) - int64(r.Version())
		if lag < 0 {
			// The primary moved on between serving /v1/shards and our
			// streams applying newer batches; we are caught up.
			lag = 0
		}
		f.srv.Registry().Gauge(metrics.Label("follower_lag_versions", "db", d.Name)).Set(lag)
	}
}

// track starts replicating one database if it is not already tracked.
func (f *Follower) track(ctx context.Context, d DBShards) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.tracked[d.Name]; ok {
		return
	}
	name := d.Name
	r := store.NewReplica(name)
	r.SetOnReset(func(version uint64) {
		// A reset may reuse version numbers of a divergent incarnation:
		// forget everything cached for this database.
		f.srv.eng.DropDB(name)
		f.logf("follower: %s reset to version %d", name, version)
	})
	if err := f.srv.stores.Adopt(r.Store()); err != nil {
		f.logf("follower: adopting %s: %v", name, err)
		return
	}
	f.srv.attach(name, r.Store())
	f.tracked[name] = r
	f.logf("follower: tracking %s", name)
	f.wg.Add(1)
	go f.streamLoop(ctx, name, r)
}

// streamLoop keeps one database's WAL stream alive: resume from the
// replica's version, apply until the stream breaks, back off,
// reconnect. A replica that fell past the primary's retention floor —
// or diverged — is reset by the stream's snapshot bootstrap.
func (f *Follower) streamLoop(ctx context.Context, name string, r *store.Replica) {
	defer f.wg.Done()
	for ctx.Err() == nil {
		err := f.streamOnce(ctx, name, r)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			f.logf("follower: %s stream: %v", name, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(followerRetry):
		}
	}
}

func (f *Follower) streamOnce(ctx context.Context, name string, r *store.Replica) error {
	u := fmt.Sprintf("%s/v1/wal/stream?db=%s&from=%d&follow=1&follower=%s",
		f.primary, url.QueryEscape(name), r.Version(), url.QueryEscape(f.id))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream status %d", resp.StatusCode)
	}
	// ApplyStream returns when the stream ends (primary closed, network
	// cut, or ctx cancellation closing the body) or on a protocol error;
	// either way the pending uncommitted batch is discarded and the next
	// connection resumes from the last committed version.
	return r.ApplyStream(resp.Body)
}

// Versions reports each tracked database's replica version.
func (f *Follower) Versions() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.tracked))
	for name, r := range f.tracked {
		out[name] = r.Version()
	}
	return out
}
