package server

import (
	"fmt"
	"net/http"
	"time"

	"cqa/internal/delta"
	"cqa/internal/parse"
)

// DefaultWatchHeartbeat is the watch stream heartbeat cadence when
// Options.WatchHeartbeat is unset.
const DefaultWatchHeartbeat = 3 * time.Second

// handleWatch answers POST /v1/watch: it registers the query against
// the named database for incremental certainty maintenance and streams
// verdict-flip events as newline-delimited JSON until the client
// disconnects or the database is dropped. The handler is registered
// outside the admission middleware: a watcher neither occupies an
// admission slot nor trips the request timeout.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	var req WatchRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if req.Database == "" {
		s.writeError(w, http.StatusBadRequest, "missing_database", "request lacks a database name")
		return
	}
	if req.Query == "" {
		s.writeError(w, http.StatusBadRequest, "missing_query", "request lacks a query")
		return
	}
	st := s.stores.Get(req.Database)
	if st == nil {
		s.writeError(w, http.StatusNotFound, "unknown_database",
			fmt.Sprintf("no database named %q", req.Database))
		return
	}
	q, err := parse.Query(req.Query)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "bad_query", err.Error())
		return
	}
	watch, state, err := s.eng.RegisterWatch(q, req.Database, st.Snapshot())
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "watch_failed", err.Error())
		return
	}
	defer s.eng.UnregisterWatch(watch)
	s.m.watchActive.Add(1)
	defer s.m.watchActive.Add(-1)

	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")

	heartbeat := s.opt.WatchHeartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultWatchHeartbeat
	}

	// Resume watermark: hold the header until the watch state reaches
	// req.From, so a reconnecting client never sees its verdict regress
	// behind a version it already processed. Flips that arrive while
	// waiting fold into the header state (the client resynchronizes
	// from it either way).
	for state.Version < req.From {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-watch.Events():
			if !ok {
				return
			}
			state = delta.State{Version: ev.Version, Verdict: ev.To}
		case <-time.After(heartbeat):
			state = watch.State()
		}
	}
	header := WatchEvent{
		Type:      WatchEventState,
		Database:  req.Database,
		Signature: watch.Signature(),
		Version:   state.Version,
		Verdict:   state.Verdict,
	}
	if _, err := w.Write(EncodeWatchEvent(header)); err != nil {
		return
	}
	flush()

	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-watch.Events():
			if !ok {
				// Database dropped (or engine closing): end the stream;
				// the client re-registers against the fresh state.
				return
			}
			frame := WatchEvent{Version: ev.Version, Verdict: ev.To}
			if ev.Resync {
				frame.Type = WatchEventState
			} else {
				frame.Type = WatchEventFlip
				from := ev.From
				frame.From = &from
				frame.Blocks = ev.Blocks
			}
			if _, err := w.Write(EncodeWatchEvent(frame)); err != nil {
				return
			}
			flush()
		case <-hb.C:
			st := watch.State()
			frame := WatchEvent{Type: WatchEventHeartbeat, Version: st.Version, Verdict: st.Verdict}
			if _, err := w.Write(EncodeWatchEvent(frame)); err != nil {
				return
			}
			flush()
		}
	}
}
