package server

import (
	"errors"
	"fmt"
	"net/http"

	"cqa/internal/obs"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// The mutable-database API: named databases live in sharded versioned
// stores (internal/shard over internal/store) — a write facade routes
// every fact to its block's owner shard, writers bump a global version,
// readers answer on immutable cross-shard views, and every write flows
// through the owner shard's WAL when the daemon runs with a data
// directory. See docs/STORE.md and docs/SHARDING.md.

// denyReadOnly rejects mutating requests on a follower. It reports true
// when the request was handled (rejected).
func (s *Server) denyReadOnly(w http.ResponseWriter) bool {
	if !s.opt.ReadOnly {
		return false
	}
	s.writeError(w, http.StatusForbidden, "read_only",
		"this server is a read-only follower; write to the primary")
	return true
}

// applyDeclares registers the request's explicit relation signatures on
// every shard before any facts apply — the way a router broadcasts a
// schema so relations empty on some shard are still declared there
// (negated atoms need the empty relation to exist).
func applyDeclares(sh interface {
	Declare(rel string, arity, key int) (store.Change, error)
}, decls []RelSig) error {
	for _, d := range decls {
		if _, err := sh.Declare(d.Name, d.Arity, d.Key); err != nil {
			return err
		}
	}
	return nil
}

// handleDBCreate answers POST /v1/db/create: a new named sharded store,
// durable when the server's set has a data directory, optionally seeded
// with inline facts and explicit declarations.
func (s *Server) handleDBCreate(w http.ResponseWriter, r *http.Request) {
	if s.denyReadOnly(w) {
		return
	}
	var req DBCreateRequest
	if err := readRequest(r.Body, &req, req.members()); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if req.Name == "" {
		s.writeError(w, http.StatusBadRequest, "missing_name", "request lacks a database name")
		return
	}
	// Parse before creating so a bad seed does not leave an empty store.
	seed, err := parse.Database(req.Facts)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
		return
	}
	sh, err := s.stores.Create(req.Name)
	switch {
	case errors.Is(err, store.ErrExists):
		s.writeError(w, http.StatusConflict, "database_exists",
			fmt.Sprintf("database %q already exists", req.Name))
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "bad_name", err.Error())
		return
	}
	s.attach(req.Name, sh)
	if err := applyDeclares(sh, req.Declare); err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "bad_declare", err.Error())
		return
	}
	wsp := obs.FromContext(r.Context()).StartSpan("wal-append")
	if _, err := sh.ApplyDB(seed); err != nil {
		wsp.Fail(err)
		wsp.End()
		s.writeError(w, http.StatusInternalServerError, "write_failed", err.Error())
		return
	}
	wsp.End()
	s.writeJSON(w, http.StatusOK, DBWriteResponse{
		Database: req.Name,
		Version:  sh.Version(),
		Applied:  seed.Size(),
	})
}

// handleDBWrite returns the handler for POST /v1/db/insert (del=false)
// or /v1/db/delete (del=true): one atomic batch of facts applied to a
// named database, each fact routed to its block's owner shard. The
// whole batch is one global version bump; no-op facts (duplicate
// inserts, absent deletes) are filtered and do not bump.
func (s *Server) handleDBWrite(del bool) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.denyReadOnly(w) {
			return
		}
		var req DBWriteRequest
		if err := readRequest(r.Body, &req, req.members()); err != nil {
			s.writeDecodeError(w, err)
			return
		}
		if req.Database == "" {
			s.writeError(w, http.StatusBadRequest, "missing_database", "request lacks a database name")
			return
		}
		sh := s.stores.Get(req.Database)
		if sh == nil {
			s.writeError(w, http.StatusNotFound, "unknown_database",
				fmt.Sprintf("no database named %q", req.Database))
			return
		}
		batch, err := parse.Database(req.Facts)
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
			return
		}
		if err := applyDeclares(sh, req.Declare); err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, "bad_declare", err.Error())
			return
		}
		wsp := obs.FromContext(r.Context()).StartSpan("wal-append")
		var change store.Change
		if del {
			change, err = sh.DeleteDB(batch)
		} else {
			change, err = sh.ApplyDB(batch)
		}
		if err != nil {
			wsp.Fail(err)
			wsp.End()
			s.writeError(w, http.StatusUnprocessableEntity, "write_failed", err.Error())
			return
		}
		wsp.End()
		s.writeJSON(w, http.StatusOK, DBWriteResponse{
			Database: req.Database,
			Version:  sh.Version(),
			Applied:  change.Applied,
			Touched:  change.Rels,
		})
	}
}

// handleDBInfo answers GET /v1/db/info: every named database with its
// global version, total size, relations, and aggregated durability
// counters — all read from one consistent cross-shard view per
// database. Per-shard detail lives in GET /v1/shards.
func (s *Server) handleDBInfo(w http.ResponseWriter, r *http.Request) {
	names := s.stores.Names()
	resp := DBInfoResponse{Databases: make([]DBInfo, 0, len(names))}
	for _, name := range names {
		sh := s.stores.Get(name)
		if sh == nil { // deleted between Names and Get; nothing to report
			continue
		}
		view := sh.View()
		info := DBInfo{
			Name:    name,
			Version: view.Version(),
			Shards:  sh.NumShards(),
			// Declares are broadcast, so shard 0 knows every relation.
			Relations: view.Shard(0).RelationNames(),
			Durable:   sh.Durable(),
		}
		for i := 0; i < view.NumShards(); i++ {
			info.Facts += view.Shard(i).Size()
		}
		for _, st := range sh.Stats() {
			info.WALRecords += st.WALRecords
			info.SegmentRecords += st.SegmentRecords
			info.CheckpointVersion += st.CheckpointVersion
			info.Checkpoints += st.Checkpoints
		}
		resp.Databases = append(resp.Databases, info)
	}
	s.writeJSON(w, http.StatusOK, resp)
}
