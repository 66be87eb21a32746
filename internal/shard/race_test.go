package shard_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/schema"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// TestShardedConcurrencyWithFollowers drives 32 goroutines at a 4-shard
// store: writers through the router facade, readers evaluating on its
// views, live WAL streams into one follower replica per shard, and
// readers evaluating on the follower's views — the full serving
// topology in one process, for the race detector. At the end the
// followers must have converged to the primary exactly.
func TestShardedConcurrencyWithFollowers(t *testing.T) {
	const (
		writers         = 8
		primaryReaders  = 8
		followerReaders = 8
		nShards         = 4 // plus nShards stream servers and nShards appliers
		writesPer       = 150
	)

	sh, err := shard.NewSharded("race", nShards, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if _, err := sh.Declare("R", 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Declare("S", 2, 1); err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Options{CacheSize: 16})
	defer eng.Close()
	queries := []schema.Query{
		schema.NewQuery(schema.Pos(schema.NewAtom("R", 1, schema.Var("x"), schema.Var("y")))),
		schema.NewQuery(schema.Pos(schema.NewAtom("R", 1, schema.Const("k3"), schema.Var("y")))),
		schema.NewQuery(
			schema.Pos(schema.NewAtom("R", 1, schema.Var("x"), schema.Var("y"))),
			schema.Pos(schema.NewAtom("S", 1, schema.Var("y"), schema.Var("z")))),
	}

	// One follower replica per shard, fed by a live Follow stream over a
	// pipe; followers publish through their own Sharded facade.
	replicas := make([]*store.Replica, nShards)
	replicaStores := make([]*store.Store, nShards)
	for i := range replicas {
		replicas[i] = store.NewReplica(fmt.Sprintf("race.s%d", i))
		replicaStores[i] = replicas[i].Store()
	}
	follower := shard.NewShardedFromStores("race", replicaStores)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	for i := 0; i < nShards; i++ {
		pr, pw := io.Pipe()
		wg.Add(2)
		go func(i int, pw *io.PipeWriter) {
			defer wg.Done()
			err := sh.Shard(i).ServeStream(pw, store.StreamOptions{
				From: 0, Follower: fmt.Sprintf("f%d", i), Follow: true, Stop: stop,
			})
			pw.CloseWithError(err)
		}(i, pw)
		go func(i int, pr *io.PipeReader) {
			defer wg.Done()
			defer pr.Close() // unblocks the server if we bail on an error
			if err := replicas[i].ApplyStream(pr); err != nil {
				t.Errorf("replica %d: %v", i, err)
			}
			follower.Refresh()
		}(i, pr)
	}

	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWg.Done()
			for i := 0; i < writesPer; i++ {
				rel := "R"
				if (w+i)%3 == 0 {
					rel = "S"
				}
				f := db.F(rel, fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d.%d", w, i%5))
				var err error
				if i%5 == 4 {
					_, err = sh.Delete(f)
				} else {
					_, err = sh.Insert(f)
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	readerLoop := func(view func() *shard.View) {
		defer wg.Done()
		var lastV uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := view()
			if v.Version() < lastV {
				t.Errorf("view version went backwards: %d → %d", lastV, v.Version())
				return
			}
			lastV = v.Version()
			if _, _, err := answer(eng, queries[i%len(queries)], "", v); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}
	for r := 0; r < primaryReaders; r++ {
		wg.Add(1)
		go readerLoop(sh.View)
	}
	for r := 0; r < followerReaders; r++ {
		wg.Add(1)
		go readerLoop(func() *shard.View { return follower.Refresh() })
	}

	writerWg.Wait()
	close(stop)
	wg.Wait()

	// Catch-up: one final non-follow stream per shard brings every
	// replica to the primary's head, and the states must match exactly.
	for i := 0; i < nShards; i++ {
		pr, pw := io.Pipe()
		go func(i int, pw *io.PipeWriter) {
			pw.CloseWithError(sh.Shard(i).ServeStream(pw, store.StreamOptions{From: replicas[i].Version()}))
		}(i, pw)
		if err := replicas[i].ApplyStream(pr); err != nil {
			t.Fatalf("final catch-up shard %d: %v", i, err)
		}
	}
	fv := follower.Refresh()
	pv := sh.View()
	if fv.Version() != pv.Version() {
		t.Fatalf("follower at global version %d, primary at %d", fv.Version(), pv.Version())
	}
	if fu, pu := fv.Union().String(), pv.Union().String(); fu != pu {
		t.Fatalf("follower diverged from primary:\n%s\nvs\n%s", fu, pu)
	}
	for _, q := range queries {
		a, _, err := answer(eng, q, "", pv)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := answer(eng, q, "", fv)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("verdicts diverged on %s: primary %v, follower %v", q, a, b)
		}
	}
}
