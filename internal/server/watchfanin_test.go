package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// openWatch starts one /v1/watch stream and returns its header frame
// plus a cancel func; fatal if the header does not arrive.
func openWatch(t *testing.T, url, database, query string) (WatchEvent, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(WatchRequest{Database: database, Query: query})
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		resp.Body.Close()
		t.Fatal("watch stream ended before header")
	}
	ev, err := ParseWatchEvent(sc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-ctx.Done()
		resp.Body.Close()
	}()
	return ev, cancel
}

// waitGauge polls fn until it returns want or the deadline passes.
func waitGauge(t *testing.T, what string, want int64, fn func() int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := fn(); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, fn(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchFanInGauge: alpha-equivalent /v1/watch subscriptions on one
// database share a subscribed entry; the watch_fanin gauge counts the
// subscriptions answered by another subscription's evaluation and
// settles back as streams close.
func TestWatchFanInGauge(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	fanin := func() int64 { return s.reg.Gauge("watch_fanin").Value() }

	h1, cancel1 := openWatch(t, ts.URL, "people", "R(x | y)")
	h2, cancel2 := openWatch(t, ts.URL, "people", "R(u | w)") // alpha-variant
	_, cancel3 := openWatch(t, ts.URL, "people", "R('a' | y)")
	defer cancel1()
	defer cancel2()
	defer cancel3()

	if h1.Signature != h2.Signature {
		t.Fatalf("alpha-variants canonicalize apart: %q vs %q", h1.Signature, h2.Signature)
	}
	if h1.Verdict != h2.Verdict || h1.Version != h2.Version {
		t.Fatalf("shared group headers disagree: %+v vs %+v", h1, h2)
	}
	// 3 watches over 2 groups: one subscription rides along.
	waitGauge(t, "watch_fanin", 1, fanin)

	cancel2()
	waitGauge(t, "watch_fanin after leave", 0, fanin)
}
