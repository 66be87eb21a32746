package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cqa/internal/gen"
	"cqa/internal/parse"

	"math/rand"
)

func TestCloseRejectsNewWork(t *testing.T) {
	e := New(Options{})
	q := parse.MustQuery("R(x | y)")
	d := parse.MustDatabase("R(a | 1)\nR(a | 2)\n")

	if _, err := e.Certain(q, d); err != nil {
		t.Fatal(err)
	}
	e.Close()

	if _, err := e.Prepare(q); !errors.Is(err, ErrClosed) {
		t.Errorf("Prepare after Close: err = %v, want ErrClosed", err)
	}
	if _, err := e.Certain(q, d); !errors.Is(err, ErrClosed) {
		t.Errorf("Certain after Close: err = %v, want ErrClosed", err)
	}
	results := e.CertainBatch(context.Background(), []Item{{Query: q, DB: d}, {Query: q, DB: d}})
	if len(results) != 2 {
		t.Fatalf("batch after Close returned %d results, want 2", len(results))
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("batch item %d after Close: err = %v, want ErrClosed", i, r.Err)
		}
	}
	// Close is idempotent.
	e.Close()

	// Stats survive shutdown: the cached plan is still visible.
	if s := e.Stats(); s.CachedPlans != 1 {
		t.Errorf("CachedPlans after Close = %d, want 1", s.CachedPlans)
	}
}

func TestCloseWaitsForInflightBatch(t *testing.T) {
	e := New(Options{})
	rng := rand.New(rand.NewSource(7))
	q := parse.MustQuery("Lives(p | t), !Born(p | t), !Likes(p, t)")
	items := make([]Item, 32)
	for i := range items {
		items[i] = Item{Query: q, DB: gen.Database(rng, q, gen.DBOptions{
			BlocksPerRelation: 64, MaxBlockSize: 2, DomainPerVariable: 16, ConstantBias: 0.7})}
	}

	// Hold the batch inside its first plan look-up: a preparation of q's
	// shape is already in flight, and the batch waits for it.
	key, _ := q.Shape()
	flight := new(sync.WaitGroup)
	flight.Add(1)
	e.cache.mu.Lock()
	e.cache.flights[key] = flight
	e.cache.mu.Unlock()

	var results []Result
	batchDone := make(chan struct{})
	go func() {
		results = e.CertainBatch(context.Background(), items)
		close(batchDone)
	}()
	// Give the batch a moment to begin before closing.
	time.Sleep(time.Millisecond)
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Error("Close returned while a batch was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	// Abandon the held preparation: the batch prepares q itself, answers
	// every item, and only then may Close return.
	e.cache.mu.Lock()
	delete(e.cache.flights, key)
	e.cache.mu.Unlock()
	flight.Done()
	<-closed
	select {
	case <-batchDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch did not finish")
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("in-flight batch item %d errored during Close: %v", i, r.Err)
		}
	}
}

func TestCloseConcurrentWithTraffic(t *testing.T) {
	e := New(Options{})
	q := parse.MustQuery("R(x | y)")
	d := parse.MustDatabase("R(a | 1)\nR(a | 2)\n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := e.Certain(q, d); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Close()
	}()
	wg.Wait()
	if _, err := e.Certain(q, d); !errors.Is(err, ErrClosed) {
		t.Errorf("after concurrent Close: err = %v, want ErrClosed", err)
	}
}
