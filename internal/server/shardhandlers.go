package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// Operational endpoints a router and a follower consume: store topology
// and stats (GET /v1/shards), the facts export a router merges for
// cross-shard joins (GET /v1/db/facts), and the WAL stream follower
// replicas tail (GET /v1/wal/stream). A cqad keeps one store per
// database, so each database reports one shard. See docs/SHARDING.md.

// handleShards answers GET /v1/shards with the serving role and the
// store of every database.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	resp := ShardsResponse{Role: s.role(), DefaultShards: 1}
	for _, name := range s.stores.Names() {
		st := s.stores.Get(name)
		if st == nil {
			continue
		}
		snap, stats := st.Snapshot(), st.Stats()
		resp.Databases = append(resp.Databases, DBShards{
			Name:    name,
			Shards:  1,
			Version: snap.Version,
			Durable: st.Durable(),
			PerShard: []ShardInfo{{
				Version:           stats.Version,
				Facts:             snap.DB.Size(),
				WALRecords:        stats.WALRecords,
				SegmentRecords:    stats.SegmentRecords,
				TailRecords:       stats.TailRecords,
				TailFloor:         stats.TailFloor,
				Followers:         stats.Followers,
				CheckpointVersion: stats.CheckpointVersion,
				Checkpoints:       stats.Checkpoints,
			}},
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleDBFacts answers GET /v1/db/facts?db=<name>[&block=<json>…]: the
// named database's facts in the cqa database syntax, with every
// relation signature alongside, at one version. Each block parameter is
// a JSON array naming one block — the relation, then its key values —
// and restricts the export to the named blocks: what a router fetches
// for a join whose keys are all ground. The signatures stay complete,
// so negated atoms over relations with no exported fact still resolve.
func (s *Server) handleDBFacts(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("db")
	st := s.stores.Get(name)
	if st == nil {
		s.writeError(w, http.StatusNotFound, "unknown_database",
			fmt.Sprintf("no database named %q", name))
		return
	}
	snap := st.Snapshot()
	d := snap.DB
	if specs := r.URL.Query()["block"]; len(specs) > 0 {
		var err error
		if d, err = pickBlocks(d, specs); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_block", err.Error())
			return
		}
	}
	facts, err := parse.FormatDatabase(d)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "unrenderable_facts", err.Error())
		return
	}
	resp := FactsResponse{
		Database:  name,
		Shard:     -1,
		Shards:    1,
		Version:   snap.Version,
		Relations: make([]RelSig, 0, 4),
		Facts:     facts,
	}
	for _, rel := range snap.DB.RelationNames() {
		rr := snap.DB.Relation(rel)
		resp.Relations = append(resp.Relations, RelSig{Name: rel, Arity: rr.Arity, Key: rr.Key})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// pickBlocks copies the blocks named by specs out of d. A block d does
// not hold — unknown relation, absent key — contributes nothing.
func pickBlocks(d *db.Database, specs []string) (*db.Database, error) {
	out := db.New()
	for _, spec := range specs {
		var block []string
		if err := json.Unmarshal([]byte(spec), &block); err != nil || len(block) < 2 {
			return nil, fmt.Errorf("block %q is not a JSON array of a relation and its key values", spec)
		}
		rel := d.Relation(block[0])
		if rel == nil {
			continue
		}
		if err := out.DeclareRelation(block[0], rel.Arity, rel.Key); err != nil {
			return nil, err
		}
		for _, f := range d.Block(block[0], block[1:]) {
			if err := out.Insert(f); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// handleWALStream answers GET /v1/wal/stream?db=<name>[&from=<version>]
// [&follow=1][&follower=<id>]: the store's catch-up stream (snapshot
// bootstrap or tail resume; see internal/store ServeStream). With
// follow=1 the response never ends on its own — the handler is
// registered outside the admission middleware, so a tailing replica
// occupies no admission slot and hits no request timeout.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	st := s.stores.Get(q.Get("db"))
	if st == nil {
		s.writeError(w, http.StatusNotFound, "unknown_database",
			fmt.Sprintf("no database named %q", q.Get("db")))
		return
	}
	var from uint64
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_from", "from must be a version number")
			return
		}
		from = n
	}
	o := store.StreamOptions{
		From:     from,
		Follower: q.Get("follower"),
		Follow:   q.Get("follow") == "1" || q.Get("follow") == "true",
		Stop:     r.Context().Done(),
	}
	if f, ok := w.(http.Flusher); ok {
		o.Flush = f.Flush
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	// Past this point the stream owns the connection: errors can only
	// end it, not change the status.
	_ = st.ServeStream(w, o)
}
