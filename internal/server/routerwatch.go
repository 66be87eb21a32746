package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cqa/internal/parse"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// handleWatch answers POST /v1/watch on the router: it opens one watch
// stream per shard (reconnecting with the shard's last seen version as
// the resume watermark) and merges them into one global flip stream.
// On a scatter plan (shard.PlanFor) the global verdict is the OR of the
// shard verdicts carried by the streams themselves; a union plan
// re-evaluates on the gathered facts (rt.gather) whenever a touched
// shard reports a change. Untouched shards cannot affect the verdict
// (the placement owns their blocks elsewhere) but their streams keep
// the version accounting exact: the stream's version is the sum of all
// shard versions — the same global version the write path acknowledges,
// so write acks work directly as resume watermarks.
func (rt *Router) handleWatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.inner.opt.MaxBodyBytes)
	var req WatchRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		rt.inner.writeDecodeError(w, err)
		return
	}
	if req.Database == "" {
		rt.inner.writeError(w, http.StatusBadRequest, "missing_database", "request lacks a database name")
		return
	}
	if req.Query == "" {
		rt.inner.writeError(w, http.StatusBadRequest, "missing_query", "request lacks a query")
		return
	}
	q, err := parse.Query(req.Query)
	if err != nil {
		rt.inner.writeError(w, http.StatusUnprocessableEntity, "bad_query", err.Error())
		return
	}
	read, err := rt.inner.eng.Plan(q)
	if err != nil {
		rt.inner.writeError(w, http.StatusUnprocessableEntity, "watch_failed", err.Error())
		return
	}
	n := len(rt.shards)
	plan := shard.PlanFor(q, n, nil)
	touched, scatter := plan.Shards, plan.Scatter()
	isTouched := make(map[int]bool, len(touched))
	for _, i := range touched {
		isTouched[i] = true
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	events := make(chan shardWatchEvent, 4*n)
	for i := 0; i < n; i++ {
		go rt.watchShard(ctx, i, req.Database, req.Query, events)
	}

	rt.inner.m.watchActive.Add(1)
	defer rt.inner.m.watchActive.Add(-1)

	flusher, _ := w.(http.Flusher)
	emit := func(ev WatchEvent) bool {
		if _, err := w.Write(EncodeWatchEvent(ev)); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	heartbeat := rt.inner.opt.WatchHeartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultWatchHeartbeat
	}

	// Per-shard stream state. The router's global state settles once
	// every shard has reported a header; until then — and while the sum
	// is behind the req.From watermark — no frame is written.
	versions := make(map[int]uint64, n)
	verdicts := make(map[int]bool, len(touched))
	known := make(map[int]bool, n)
	sum := func() uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v += versions[i]
		}
		return v
	}
	globalVerdict := func() (bool, error) {
		if scatter {
			for _, i := range touched {
				if verdicts[i] {
					return true, nil
				}
			}
			return false, nil
		}
		merged, err := rt.gather(ctx, q, req.Database, plan)
		if err != nil {
			return false, err
		}
		certain, _, err := rt.inner.eng.Answer(read, "", store.Snapshot{DB: merged})
		return certain, err
	}

	headerSent := false
	var last bool
	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			if headerSent {
				if !emit(WatchEvent{Type: WatchEventHeartbeat, Version: sum(), Verdict: last}) {
					return
				}
			}
		case sev := <-events:
			if sev.err != nil {
				// The shard watcher reconnects on its own; heartbeats keep
				// flowing with the last settled state meanwhile.
				continue
			}
			idle := sev.ev.Type == WatchEventHeartbeat && sev.ev.Version == versions[sev.shard]
			versions[sev.shard] = sev.ev.Version
			if scatter && isTouched[sev.shard] {
				verdicts[sev.shard] = sev.ev.Verdict
			}
			firstSight := !known[sev.shard]
			known[sev.shard] = true
			if len(known) < n {
				continue
			}
			if headerSent && (!isTouched[sev.shard] || (idle && !firstSight)) {
				// Untouched shards only keep the version sum exact, and an
				// idle heartbeat moved nothing: skip the (possibly
				// facts-merging) global recomputation.
				continue
			}
			if !headerSent {
				if sum() < req.From {
					continue
				}
				v, err := globalVerdict()
				if err != nil {
					continue // a shard died mid-registration; retry on next event
				}
				last = v
				headerSent = true
				if !emit(WatchEvent{
					Type: WatchEventState, Database: req.Database,
					Signature: q.Signature(), Version: sum(), Verdict: last,
				}) {
					return
				}
				continue
			}
			v, err := globalVerdict()
			if err != nil {
				continue
			}
			if v == last {
				continue
			}
			from := last
			last = v
			// A flip triggered by a shard's own flip frame is exact; a
			// change first observed through a state frame (shard resync
			// or stream reconnect) may collapse several flips, so it is
			// relayed as a state frame too.
			if sev.ev.Type == WatchEventFlip && !firstSight {
				if !emit(WatchEvent{Type: WatchEventFlip, Version: sum(), From: &from, Verdict: last, Blocks: sev.ev.Blocks}) {
					return
				}
			} else if !emit(WatchEvent{Type: WatchEventState, Version: sum(), Verdict: last}) {
				return
			}
		}
	}
}

// shardWatchEvent is one parsed frame (or stream failure) of a
// downstream shard watch.
type shardWatchEvent struct {
	shard int
	ev    WatchEvent
	err   error
}

// watchShard keeps one shard's watch stream alive: connect, relay parsed
// frames, back off and reconnect with the shard's last seen version as
// the resume watermark.
func (rt *Router) watchShard(ctx context.Context, i int, database, query string, out chan<- shardWatchEvent) {
	var from uint64
	for ctx.Err() == nil {
		err := rt.watchShardOnce(ctx, i, database, query, &from, out)
		if ctx.Err() != nil {
			return
		}
		select {
		case out <- shardWatchEvent{shard: i, err: err}:
		case <-ctx.Done():
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
}

func (rt *Router) watchShardOnce(ctx context.Context, i int, database, query string, from *uint64, out chan<- shardWatchEvent) error {
	body := fmt.Sprintf(`{"database":%q,"query":%q,"from":%d}`, database, query, *from)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.shards[i]+"/v1/watch", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// The watch stream is long-lived: the router's pooled client has an
	// overall request timeout, so streams use a dedicated one.
	resp, err := rt.watchClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %d watch: status %d", i, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		ev, err := ParseWatchEvent(sc.Bytes())
		if err != nil {
			return fmt.Errorf("shard %d watch frame: %w", i, err)
		}
		if ev.Version > *from {
			*from = ev.Version
		}
		select {
		case out <- shardWatchEvent{shard: i, ev: ev}:
		case <-ctx.Done():
			return nil
		}
	}
	return sc.Err()
}
