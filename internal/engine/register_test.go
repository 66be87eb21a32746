package engine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/delta"
	"cqa/internal/engine"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/store"
)

type watchLog struct {
	q      int
	w      *delta.Watch
	header delta.State
	events []delta.Event
	done   chan struct{}
}

// Registrations race a writer. Every watch's header state and every
// flip must be the verdict of the snapshot at its version, each flip
// must start from the verdict before it, no change of the verdict may go
// unreported, and the last published state must be the final truth.
// Co-keyed and not co-keyed queries are mixed, and signatures repeat, so
// watches both create and join entries. Run under -race.
func TestRegisterUnderConcurrentWrites(t *testing.T) {
	// One store: the single shard a cqad keeps per database.
	t.Run("shards=1", func(t *testing.T) {
		const writes, registrars, perRegistrar, seed = 120, 4, 8, 1
		e := engine.New(engine.Options{})
		defer e.Close()
		var facts string
		for i := 0; i < 4; i++ {
			// Values are keys too, so that the joins have something to join.
			facts += fmt.Sprintf("R(k%d | k%d)\nS(k%d | k%d)\n", i, (i+1)%4, i, i)
		}
		sh := store.NewMem("d", parse.MustDatabase(facts))
		var mu sync.Mutex
		snaps := map[uint64]store.Snapshot{0: sh.Snapshot()}
		sh.SetOnApply(func(c store.Change) {
			cur := sh.Snapshot()
			e.ApplyChange("d", c, cur)
			mu.Lock()
			snaps[c.Version] = cur
			mu.Unlock()
		})

		var queries []schema.Query
		var preps []*core.Prepared
		for _, src := range []string{
			"R(x | 'k1'), !S(x | 'k1')", "R('k2' | y), !S('k2' | y)", "R(x | y), !S(x | y)", // co-keyed
			"R(x | y), S(y | z)", "R(x | y), !S(y | x)", "R(x | y), S(y | 'k0')", // not co-keyed
		} {
			q := parse.MustQuery(src)
			p, err := core.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			queries, preps = append(queries, q), append(preps, p)
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < writes; i++ {
				f := db.F([]string{"R", "S"}[rng.Intn(2)], fmt.Sprintf("k%d", rng.Intn(4)), fmt.Sprintf("k%d", rng.Intn(4)))
				var err error
				if rng.Intn(2) == 0 {
					_, err = sh.Insert(f)
				} else {
					_, err = sh.Delete(f)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		logs := make([][]*watchLog, registrars)
		for r := 0; r < registrars; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*100 + int64(r)))
				for i := 0; i < perRegistrar; i++ {
					l := &watchLog{q: rng.Intn(len(queries)), done: make(chan struct{})}
					w, st, err := e.RegisterWatch(queries[l.q], "d", sh.Snapshot())
					if err != nil {
						t.Error(err)
						return
					}
					l.w, l.header = w, st
					go func() {
						defer close(l.done)
						for ev := range w.Events() {
							l.events = append(l.events, ev)
						}
					}()
					logs[r] = append(logs[r], l)
				}
			}(r)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		final := sh.Version()
		truth := make(map[[2]uint64]bool)
		truthAt := func(q int, v uint64) bool {
			k := [2]uint64{uint64(q), v}
			if got, ok := truth[k]; ok {
				return got
			}
			snap, ok := snaps[v]
			if !ok {
				t.Fatalf("no snapshot recorded at v%d", v)
			}
			truth[k] = preps[q].CertainTreeWalk(snap.DB)
			return truth[k]
		}
		for _, rl := range logs {
			for _, l := range rl {
				if st := l.w.State(); st.Version != final || st.Verdict != truthAt(l.q, final) {
					t.Errorf("%s: last state %+v, final truth at v%d is %v", queries[l.q], st, final, truthAt(l.q, final))
				}
				e.UnregisterWatch(l.w)
				<-l.done
				checkWatchLog(t, queries[l.q], l, final, func(v uint64) bool { return truthAt(l.q, v) })
			}
		}
	})
}

// checkWatchLog checks one watch's header and events against truth.
func checkWatchLog(t *testing.T, q schema.Query, l *watchLog, final uint64, truth func(uint64) bool) {
	t.Helper()
	if l.header.Verdict != truth(l.header.Version) {
		t.Errorf("%s: header %+v, truth %v", q, l.header, truth(l.header.Version))
		return
	}
	verdict, version, resynced := l.header.Verdict, l.header.Version, false
	for _, ev := range l.events {
		switch {
		case ev.Version <= version:
			t.Errorf("%s: event %+v after v%d", q, ev, version)
		case ev.To != truth(ev.Version):
			t.Errorf("%s: event %+v, truth %v", q, ev, truth(ev.Version))
		case !ev.Resync && (ev.From != verdict || ev.From == ev.To):
			t.Errorf("%s: flip %+v after verdict %v", q, ev, verdict)
		}
		resynced = resynced || ev.Resync
		// Between two reports the verdict must hold: a change of the
		// truth inside the gap is a missed flip. A resync covers shed ones.
		for v := version + 1; v < ev.Version && !ev.Resync; v++ {
			if truth(v) != verdict {
				t.Errorf("%s: verdict changed to %v at v%d without a flip", q, truth(v), v)
				return
			}
		}
		verdict, version = ev.To, ev.Version
	}
	for v := version + 1; v <= final; v++ {
		if truth(v) != verdict {
			t.Errorf("%s: verdict changed to %v at v%d without a flip (resynced %v)", q, truth(v), v, resynced)
			return
		}
	}
}
