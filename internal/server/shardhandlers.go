package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"cqa/internal/db"
	"cqa/internal/parse"
)

// Operational endpoints a router consumes: store topology and stats
// (GET /v1/shards) and the facts export a router merges for cross-shard
// joins (GET /v1/db/facts). A cqad keeps one store per database, so
// each database reports one shard. See docs/SHARDING.md.

// handleShards answers GET /v1/shards with the serving role and the
// store of every database.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	resp := ShardsResponse{Role: "primary", DefaultShards: 1}
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
