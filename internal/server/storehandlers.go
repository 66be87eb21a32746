package server

import (
	"errors"
	"fmt"
	"net/http"

	"cqa/internal/db"
	"cqa/internal/obs"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// The mutable-database API: each named database is one versioned store
// (internal/store). Writers bump its version, readers answer on its
// immutable snapshots, and every write flows through its WAL when the
// daemon runs with a data directory. See docs/STORE.md.

// parseWrite parses a write request's facts and folds its explicit
// relation signatures into the relations it declares: every relation of
// the facts plus the declare list for a create or insert, the declare
// list alone for a delete. A router sends every shard the whole batch's
// signatures, so relations empty on some shard are still declared there
// (negated atoms need the empty relation to exist). The request is
// validated whole here, before any store is created or written, and is
// then applied as one store batch, so a rejected write changes nothing.
// On failure parseWrite answers the request and returns false.
func (s *Server) parseWrite(w http.ResponseWriter, facts string, declare []RelSig, del bool) (decls, batch *db.Database, ok bool) {
	batch, err := parse.Database(facts)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "bad_facts", err.Error())
		return nil, nil, false
	}
	decls = batch
	if del {
		decls = db.New()
	}
	for _, d := range declare {
		if err := decls.DeclareRelation(d.Name, d.Arity, d.Key); err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, "bad_declare", err.Error())
			return nil, nil, false
		}
	}
	return decls, batch, true
}

// writeDB applies one parsed write to st under a wal-append span. An
// insert's declarations are its batch (parseWrite), so it is ApplyDB.
func writeDB(r *http.Request, st *store.Store, decls, batch *db.Database, del bool) (store.Change, error) {
	sp := obs.FromContext(r.Context()).StartSpan("wal-append")
	defer sp.End()
	var c store.Change
	var err error
	if del {
		c, err = st.WriteDB(decls, batch, true)
	} else {
		c, err = st.ApplyDB(batch)
	}
	if err != nil {
		sp.Fail(err)
	}
	return c, err
}

// handleDBCreate answers POST /v1/db/create: a new named store, durable
// when the server's set has a data directory, born holding the parsed
// seed (inline facts and explicit declarations) as its first snapshot —
// version 1, or 0 for an empty create. The seed is not re-applied: the
// store-load span covers publishing it and, when durable, writing it as
// the first checkpoint. No request finds the database before its seed
// is in it.
func (s *Server) handleDBCreate(w http.ResponseWriter, r *http.Request) {
	var req DBCreateRequest
	if err := s.readRequest(r, &req, req.members()); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if req.Name == "" {
		s.writeError(w, http.StatusBadRequest, "missing_name", "request lacks a database name")
		return
	}
	_, seed, ok := s.parseWrite(w, req.Facts, req.Declare, false)
	if !ok {
		return
	}
	var version uint64
	sp := obs.FromContext(r.Context()).StartSpan("store-load")
	_, err := s.stores.Create(r.Context(), req.Name, seed, func(st *store.Store) {
		version = st.Version()
		s.attach(req.Name, st)
	})
	sp.Fail(err)
	sp.End()
	switch {
	case errors.Is(err, store.ErrExists):
		s.writeError(w, http.StatusConflict, "database_exists",
			fmt.Sprintf("database %q already exists", req.Name))
		return
	case errors.Is(err, store.ErrBadName):
		s.writeError(w, http.StatusBadRequest, "bad_name", err.Error())
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "write_failed", err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, DBWriteResponse{
		Database: req.Name,
		Version:  version,
		Applied:  seed.Size(),
	})
}

// handleDBWrite returns the handler for POST /v1/db/insert (del=false)
// or /v1/db/delete (del=true): one atomic batch of facts applied to a
// named database. The whole batch is one version bump; no-op facts
// (duplicate inserts, absent deletes) are filtered and do not bump.
func (s *Server) handleDBWrite(del bool) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		var req DBWriteRequest
		if err := s.readRequest(r, &req, req.members()); err != nil {
			s.writeDecodeError(w, err)
			return
		}
		if req.Database == "" {
			s.writeError(w, http.StatusBadRequest, "missing_database", "request lacks a database name")
			return
		}
		st := s.stores.Get(req.Database)
		if st == nil {
			s.writeError(w, http.StatusNotFound, "unknown_database",
				fmt.Sprintf("no database named %q", req.Database))
			return
		}
		decls, batch, ok := s.parseWrite(w, req.Facts, req.Declare, del)
		if !ok {
			return
		}
		change, err := writeDB(r, st, decls, batch, del)
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, "write_failed", err.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, DBWriteResponse{
			Database: req.Database,
			Version:  change.Version,
			Applied:  change.Applied,
			Touched:  change.Rels,
		})
	}
}

// handleDBInfo answers GET /v1/db/info: every named database with its
// version, size, relations and durability counters, read from one
// snapshot per database. Per-store detail lives in GET /v1/shards.
func (s *Server) handleDBInfo(w http.ResponseWriter, r *http.Request) {
	names := s.stores.Names()
	resp := DBInfoResponse{Databases: make([]DBInfo, 0, len(names))}
	for _, name := range names {
		st := s.stores.Get(name)
		if st == nil { // deleted between Names and Get; nothing to report
			continue
		}
		snap, stats := st.Snapshot(), st.Stats()
		resp.Databases = append(resp.Databases, DBInfo{
			Name:              name,
			Version:           snap.Version,
			Shards:            1,
			Facts:             snap.DB.Size(),
			Relations:         snap.DB.RelationNames(),
			Durable:           st.Durable(),
			WALRecords:        stats.WALRecords,
			SegmentRecords:    stats.SegmentRecords,
			CheckpointVersion: stats.CheckpointVersion,
			Checkpoints:       stats.Checkpoints,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}
