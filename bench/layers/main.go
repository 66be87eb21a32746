// Command layers times, in process, the layers that the served spans do
// not separate. The benchmark driver (../) runs it as a subprocess on
// the inputs it generated for a workload and merges the JSON object
// printed here into the per-layer metrics.
//
// It calls only this surface of the repository: parse.Query,
// parse.Database, parse.DeclareQueryRelations, server.ParseCertainRequest,
// server.CertainResponse, core.Prepare, (*core.Prepared).Certain and
// InFO, db.Intern, db.InternNext and the Database methods Size,
// CloneCOW, Insert, Interned and SeedInterned, engine.New with zero
// options plus CertainBatch, store.Open/NewMem with Insert, Delete,
// ApplyDB, Snapshot and SetOnApply, shard.NewSharded plus
// (*shard.View).Union, and delta.New/Register/Apply/Quiesce/Close. If a
// later change removes one of these the probe metrics go absent; the
// end-to-end numbers do not depend on this package.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/delta"
	"cqa/internal/engine"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/server"
	"cqa/internal/shard"
	"cqa/internal/store"
)

type inlineCase struct {
	Class string `json:"class"`
	Query string `json:"query"`
	Facts string `json:"facts"`
}

type input struct {
	Workload string       `json:"workload"`
	Facts    string       `json:"facts"`
	Queries  []string     `json:"queries"`
	Bodies   []string     `json:"bodies"`
	Inline   []inlineCase `json:"inline"`
	Insert   []string     `json:"insert"`
	Keys     []string     `json:"keys"`
}

var sink bool // keeps timed calls from being optimised away

func main() {
	inPath := flag.String("input", "", "probe input written by the driver")
	dir := flag.String("dir", "", "scratch directory for the durable store probe")
	flag.Parse()
	b, err := os.ReadFile(*inPath)
	if err != nil {
		fatal(err)
	}
	var in input
	if err := json.Unmarshal(b, &in); err != nil {
		fatal(err)
	}
	out := map[string]float64{} // a layer this workload's inputs do not reach stays out of it
	if err := probe(in, *dir, out); err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layers:", err)
	os.Exit(1)
}

func since(t time.Time, unit time.Duration) float64 { return float64(time.Since(t)) / float64(unit) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// put records the median of xs under name, or nothing when xs is empty.
func put(out map[string]float64, name string, xs []float64) {
	if len(xs) > 0 {
		out[name] = median(xs)
	}
}

// database parses facts and declares the relations q mentions, as the
// served inline path does.
func database(facts string, q schema.Query) (*db.Database, error) {
	d, err := parse.Database(facts)
	if err != nil {
		return nil, err
	}
	return d, parse.DeclareQueryRelations(d, q)
}

func probe(in input, dir string, out map[string]float64) error {
	// Request decoding and reply encoding.
	var decode, encode []float64
	for rep := 0; rep < 20; rep++ {
		for _, body := range in.Bodies {
			t := time.Now()
			if _, err := server.ParseCertainRequest([]byte(body)); err != nil {
				return err
			}
			decode = append(decode, since(t, time.Microsecond))
		}
		cached := false
		t := time.Now()
		if err := json.NewEncoder(io.Discard).Encode(server.CertainResponse{Verdict: "FO", Database: "w", Version: 12345, Cached: &cached}); err != nil {
			return err
		}
		encode = append(encode, since(t, time.Microsecond))
	}
	put(out, "server.decode_us", decode)
	put(out, "server.encode_us", encode)

	// core.Prepare over the workload's questions.
	var queries []schema.Query
	var prepared []*core.Prepared
	var prepare []float64
	for _, src := range in.Queries {
		q, err := parse.Query(src)
		if err != nil {
			return err
		}
		t := time.Now()
		p, err := core.Prepare(q)
		if err != nil {
			return err
		}
		prepare = append(prepare, since(t, time.Microsecond))
		queries, prepared = append(queries, q), append(prepared, p)
	}
	put(out, "core.prepare_us", prepare)

	// The databases: the one store database, or the inline ones, each
	// with the question asked of it.
	type pair struct {
		class, facts string
		q            schema.Query
		p            *core.Prepared
	}
	var pairs []pair
	if in.Facts != "" {
		for i := 0; i < 3; i++ {
			pairs = append(pairs, pair{"fo", in.Facts, queries[0], prepared[0]})
		}
	}
	for _, c := range in.Inline {
		q, err := parse.Query(c.Query)
		if err != nil {
			return err
		}
		p, err := core.Prepare(q)
		if err != nil {
			return err
		}
		pairs = append(pairs, pair{c.Class, c.Facts, q, p})
	}
	var parseUS, internMS, firstMS, warmNS, buildMS, ids []float64
	byClass := map[string][]float64{}
	var snapshots []*db.Database
	for _, pr := range pairs {
		t := time.Now()
		d, err := database(pr.facts, pr.q)
		if err != nil {
			return err
		}
		parseUS = append(parseUS, since(t, time.Microsecond)/(float64(d.Size())/1000))
		t = time.Now()
		ix := db.Intern(d)
		internMS = append(internMS, since(t, time.Millisecond))
		ids = append(ids, float64(ix.NumIDs()))
		d.SeedInterned(ix)
		t = time.Now()
		sink = pr.p.Certain(d)
		first := since(t, time.Millisecond)
		byClass[pr.class] = append(byClass[pr.class], first*1000)
		if pr.p.InFO() {
			var warm []float64
			for i := 0; i < 200; i++ {
				t = time.Now()
				sink = pr.p.Certain(d)
				warm = append(warm, since(t, time.Nanosecond))
			}
			firstMS = append(firstMS, first)
			warmNS = append(warmNS, median(warm))
			buildMS = append(buildMS, first-median(warm)/1e6)
		}
		snapshots = append(snapshots, d)
	}
	put(out, "parse.facts_us_per_kfact", parseUS)
	put(out, "db.intern_ms", internMS)
	put(out, "db.dict_ids", ids)
	put(out, "fo.first_eval_ms", firstMS)
	put(out, "fo.warm_eval_ns", warmNS)
	put(out, "db.bitset_build_ms", buildMS)
	put(out, "planner.matching_us", byClass["matching"])
	put(out, "planner.reachability_us", byClass["reachability"])
	put(out, "naive.hard_us", byClass["hard"])

	// A batch of 64 items over 8 snapshots through the engine.
	eng := engine.New(engine.Options{})
	defer eng.Close()
	snaps := snapshots // inline: the first class's eight databases, each with its question
	if in.Facts != "" {
		snaps = nil
		for i := 0; i < 8; i++ {
			snaps = append(snaps, snapshots[0].CloneCOW())
		}
	}
	var items []engine.Item
	for i := 0; i < 64; i++ {
		q := queries[i/8%len(queries)]
		if in.Facts == "" {
			q = pairs[i%8].q
		}
		items = append(items, engine.Item{Query: q, DB: snaps[i%8]})
	}
	var batch []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		for _, res := range eng.CertainBatch(context.Background(), items) {
			if res.Err != nil {
				return res.Err
			}
		}
		batch = append(batch, since(t, time.Microsecond)/float64(len(items)))
	}
	out["engine.batch_us_per_item"] = median(batch)

	if in.Facts == "" {
		return nil
	}
	base := snapshots[0]
	fact := db.F(in.Insert[0], in.Insert[1], in.Insert[2])

	// A one-fact change: the next interned view, a durable store's
	// insert, the union of a two-shard view.
	next := base.CloneCOW(fact.Rel)
	if err := next.Insert(fact); err != nil {
		return err
	}
	t := time.Now()
	db.InternNext(base.Interned(), next)
	out["db.intern_next_ms"] = since(t, time.Millisecond)

	st, err := store.Open("w", store.Options{Dir: filepath.Join(dir, "probe-store")})
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.ApplyDB(base); err != nil {
		return err
	}
	var apply []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		if _, err := st.Insert(fact); err != nil {
			return err
		}
		apply = append(apply, since(t, time.Millisecond))
		if _, err := st.Delete(fact); err != nil {
			return err
		}
	}
	out["store.apply_ms"] = median(apply)

	sh, err := shard.NewSharded("w", 2, store.Options{})
	if err != nil {
		return err
	}
	defer sh.Close()
	if _, err := sh.ApplyDB(base); err != nil {
		return err
	}
	var union []float64
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		sh.View().Union()
		union = append(union, since(t, time.Millisecond))
		if _, err := sh.Insert(fact); err != nil {
			return err
		}
		if _, err := sh.Delete(fact); err != nil {
			return err
		}
	}
	out["shard.union_ms"] = median(union)

	// Watch registrations on ground keys, then one-fact changes fed to
	// the delta manager; the store's own apply time is left out.
	for _, n := range []int{1000, 10000} {
		if n > len(in.Keys) {
			n = len(in.Keys)
		}
		mem := store.NewMem("w", base)
		var change store.Change
		mem.SetOnApply(func(c store.Change) { change = c })
		m := delta.New(delta.Options{})
		snap := mem.Snapshot()
		t := time.Now()
		for _, k := range in.Keys[:n] {
			q, err := parse.Query(strings.ReplaceAll("R('K' | x), !S('K' | x)", "K", k))
			if err != nil {
				return err
			}
			p, err := core.Prepare(q)
			if err != nil {
				return err
			}
			if _, _, err := m.Register("w", q.Signature(), p, delta.Snapshot{DB: snap.DB, Version: snap.Version}); err != nil {
				return err
			}
		}
		out["delta.register_us"] = since(t, time.Microsecond) / float64(n)
		var per []float64
		for rep := 0; rep < 10; rep++ {
			var err error
			if rep%2 == 0 {
				_, err = mem.Insert(fact)
			} else {
				_, err = mem.Delete(fact)
			}
			if err != nil {
				return err
			}
			after := mem.Snapshot()
			t := time.Now()
			m.Apply("w", change, func() *db.Database { return after.DB })
			m.Quiesce("w")
			per = append(per, since(t, time.Microsecond))
		}
		m.Close()
		name := "delta.apply_us_per_change_1k"
		if n > 1000 {
			name = "delta.apply_us_per_change_10k"
		}
		out[name] = median(per)
	}
	return nil
}
