package chaostest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/server"
)

// watchCollector keeps one router /v1/watch stream alive across shard
// kills, recording every frame. It reconnects with the last seen
// version as the resume watermark, exactly like a production consumer.
type watchCollector struct {
	mu         sync.Mutex
	frames     []server.WatchEvent
	maxVersion uint64
	verdict    bool // settled by state/flip frames
	started    bool

	cancel context.CancelFunc
	done   chan struct{}
}

func startWatchCollector(baseURL, database, query string) *watchCollector {
	ctx, cancel := context.WithCancel(context.Background())
	wc := &watchCollector{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(wc.done)
		client := &http.Client{}
		for ctx.Err() == nil {
			wc.streamOnce(ctx, client, baseURL, database, query)
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
		}
	}()
	return wc
}

func (wc *watchCollector) streamOnce(ctx context.Context, client *http.Client, baseURL, database, query string) {
	wc.mu.Lock()
	from := wc.maxVersion
	wc.mu.Unlock()
	body, _ := json.Marshal(server.WatchRequest{Database: database, Query: query, From: from})
	req, err := http.NewRequestWithContext(ctx, "POST", baseURL+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		ev, err := server.ParseWatchEvent(sc.Bytes())
		if err != nil {
			return
		}
		wc.mu.Lock()
		wc.frames = append(wc.frames, ev)
		if ev.Version > wc.maxVersion {
			wc.maxVersion = ev.Version
		}
		if ev.Type == server.WatchEventState || ev.Type == server.WatchEventFlip {
			wc.verdict = ev.Verdict
			wc.started = true
		}
		wc.mu.Unlock()
	}
}

func (wc *watchCollector) state() (uint64, bool, bool) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.maxVersion, wc.verdict, wc.started
}

func (wc *watchCollector) stop() []server.WatchEvent {
	wc.cancel()
	<-wc.done
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.frames
}

// TestChaosWatchResume SIGKILLs the shard owning a watched key while a
// router /v1/watch stream is live: the stream must keep its last
// settled state (heartbeats), resume when the shard recovers from its
// WAL, and deliver every subsequent flip — with no flip missed and
// none fabricated, checked frame-by-frame against a version-keyed
// client shadow.
func TestChaosWatchResume(t *testing.T) {
	dir := t.TempDir()
	tp, err := Boot(BootOptions{Bin: cqadBin, Dir: dir, Shards: 4, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	h := newHarness(t, tp, 99)

	victim := 0
	key, _ := h.keyOwnedBy(victim)
	watchQuery := fmt.Sprintf("R('k%d' | 'v0')", key)
	q, err := parse.Query(watchQuery)
	if err != nil {
		t.Fatal(err)
	}

	// truth maps every acknowledged global version to the watched
	// query's shadow verdict at that version.
	truth := make(map[uint64]bool)
	record := func(version uint64) {
		want, err := core.Certain(q, h.shadow, core.EngineRewriting)
		if err != nil {
			t.Fatal(err)
		}
		truth[version] = want
	}
	write := func(rel, key, val string, del bool) uint64 {
		t.Helper()
		path := "/v1/db/insert"
		if del {
			path = "/v1/db/delete"
		}
		var ack server.DBWriteResponse
		err := h.post(tp.Router.URL+path, server.DBWriteRequest{
			Database: chaosDB,
			Facts:    fmt.Sprintf("%s(%s | %s)\n", rel, key, val),
		}, &ack)
		if err != nil {
			t.Fatalf("write %s(%s|%s): %v", rel, key, val, err)
		}
		f := db.F(rel, key, val)
		switch {
		case del && h.shadow.Has(f):
			h.shadow.Remove(f)
		case !del && !h.shadow.Has(f):
			h.shadow.MustInsert(f)
		}
		record(ack.Version)
		return ack.Version
	}

	// Normalize the watched block to exactly {R(k|v0)} so the flip
	// writes below toggle the verdict deterministically.
	kstr := fmt.Sprintf("k%d", key)
	write("R", kstr, "v0", false)
	for v := 1; v < chaosValues; v++ {
		write("R", kstr, fmt.Sprintf("v%d", v), true)
	}
	baseVersion, err := h.version(tp.Router.URL)
	if err != nil {
		t.Fatal(err)
	}
	record(baseVersion)

	wc := startWatchCollector(tp.Router.URL, chaosDB, watchQuery)
	defer wc.stop()
	waitFor := func(version uint64, verdict bool, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			v, got, started := wc.state()
			if started && v >= version && got == verdict {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: stream at v%d verdict %v, want v%d verdict %v", what, v, got, version, verdict)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitFor(baseVersion, truth[baseVersion], "header")

	// flipWrite toggles R(k|v1): present makes the verdict false,
	// absent makes it true (the block is otherwise exactly {v0}).
	present := false
	flipWrite := func() uint64 {
		v := write("R", kstr, "v1", present)
		present = !present
		return v
	}
	for i := 0; i < 3; i++ {
		v := flipWrite()
		waitFor(v, truth[v], "pre-kill flip")
	}

	killVersion, _, _ := wc.state()
	t.Logf("SIGKILL %s mid-stream at v%d", tp.Shards[victim].Name, killVersion)
	if err := tp.Shards[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	// The stream must hold its settled state while the shard is down —
	// no fabricated flips from the broken shard stream.
	time.Sleep(1 * time.Second)
	if _, got, _ := wc.state(); got != truth[killVersion] {
		t.Fatalf("stream verdict drifted to %v while %s was down", got, tp.Shards[victim].Name)
	}
	if err := tp.Shards[victim].Start(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Shards[victim].WaitHealthy(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	var finalVersion uint64
	for i := 0; i < 3; i++ {
		finalVersion = flipWrite()
		waitFor(finalVersion, truth[finalVersion], "post-restart flip")
	}

	frames := wc.stop()
	validateWatchFrames(t, frames, truth, finalVersion, killVersion)
}

// validateWatchFrames is the exactness check: every frame's verdict
// must match the shadow at the frame's version, flips must chain, and
// every truth change between consecutive baselines must be covered.
func validateWatchFrames(t *testing.T, frames []server.WatchEvent, truth map[uint64]bool, finalVersion, killVersion uint64) {
	t.Helper()
	versions := make([]uint64, 0, len(truth))
	for v := range truth {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	between := func(lo, hi uint64, verdict bool) error {
		i := sort.Search(len(versions), func(i int) bool { return versions[i] > lo })
		for ; i < len(versions) && versions[i] < hi; i++ {
			if truth[versions[i]] != verdict {
				return fmt.Errorf("verdict flipped at v%d but no flip frame covers it", versions[i])
			}
		}
		return nil
	}

	var lastVerdict bool
	var lastVersion uint64
	started := false
	flips, postRestartFlips := 0, 0
	for fi, ev := range frames {
		want, ok := truth[ev.Version]
		if !ok {
			t.Fatalf("frame %d (%+v): version %d was never acknowledged", fi, ev, ev.Version)
		}
		switch ev.Type {
		case server.WatchEventState:
			if ev.Verdict != want {
				t.Fatalf("frame %d (%+v): state verdict %v, shadow says %v", fi, ev, ev.Verdict, want)
			}
			lastVerdict, lastVersion, started = ev.Verdict, ev.Version, true
		case server.WatchEventHeartbeat:
			if ev.Verdict != want {
				t.Fatalf("frame %d (%+v): heartbeat verdict %v, shadow says %v", fi, ev, ev.Verdict, want)
			}
		case server.WatchEventFlip:
			if !started {
				t.Fatalf("frame %d (%+v): flip before the header state", fi, ev)
			}
			if *ev.From != lastVerdict {
				t.Fatalf("frame %d (%+v): flip from %v, stream settled on %v — a flip was missed", fi, ev, *ev.From, lastVerdict)
			}
			if ev.Verdict != want {
				t.Fatalf("frame %d (%+v): FABRICATED FLIP: to %v, shadow says %v", fi, ev, ev.Verdict, want)
			}
			if err := between(lastVersion, ev.Version, lastVerdict); err != nil {
				t.Fatalf("frame %d (%+v): %v", fi, ev, err)
			}
			flips++
			if ev.Version > killVersion {
				postRestartFlips++
			}
			lastVerdict, lastVersion = ev.Verdict, ev.Version
		}
	}
	if !started {
		t.Fatal("stream delivered no state frame")
	}
	if err := between(lastVersion, finalVersion, lastVerdict); err != nil {
		t.Fatalf("tail: %v", err)
	}
	if lastVersion < finalVersion && truth[finalVersion] != lastVerdict {
		t.Fatalf("final verdict %v at v%d never pushed (stream settled on %v)", truth[finalVersion], finalVersion, lastVerdict)
	}
	if flips < 4 {
		t.Fatalf("expected at least 4 flip frames across 6 flip writes, got %d", flips)
	}
	if postRestartFlips == 0 {
		t.Fatal("no flip frame after the shard restart: the stream did not resume")
	}
}
