package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The wire types are declared here, not imported from internal/server:
// the benchmark speaks to cqad as any client would, and a later change
// to the server's Go types must not change what the benchmark sends.

type stage struct {
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
}

type explain struct {
	Strategy      string  `json:"strategy"`
	PlanCache     string  `json:"planCache"`
	ResultCache   string  `json:"resultCache"`
	RewritingSize int     `json:"rewritingSize"`
	Shards        []int   `json:"shards"`
	Stages        []stage `json:"stages"`
	TraceID       string  `json:"traceId"`
}

type answer struct {
	Certain bool     `json:"certain"`
	Version uint64   `json:"version"`
	Explain *explain `json:"explain"`
}

type writeAck struct {
	Version uint64 `json:"version"`
	Applied int    `json:"applied"`
}

type watchFrame struct {
	Type    string `json:"type"`
	Version uint64 `json:"version"`
	From    *bool  `json:"from"`
	Verdict bool   `json:"verdict"`
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
	}
}

// post sends one JSON body and returns the status and the whole reply;
// the elapsed time covers the request up to the last byte of the reply.
func post(c *http.Client, url string, body []byte) (status int, reply []byte, elapsed time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, time.Since(start), err
}

// postJSON posts v and decodes a 200 reply into out.
func postJSON(c *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	status, reply, _, err := post(c, url, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, status, bytes.TrimSpace(reply))
	}
	return json.Unmarshal(reply, out)
}

// getJSON fetches url and decodes a 200 reply into out; it returns the
// reply's size and the time the fetch took.
func getJSON(c *http.Client, url string, out any) (int, time.Duration, error) {
	start := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return 0, 0, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return len(reply), elapsed, json.Unmarshal(reply, out)
}

// sample is one completed read.
type sample struct {
	id      int     // which question: key, pool or inline-case index
	seg     int     // segment it started in; -1 during warm-up
	ms      float64 // client-side latency
	ok      bool    // transport succeeded with status 200 and a decodable body
	certain bool
	version uint64
	explain *explain
}

// mark is taken at each segment boundary.
type mark struct {
	at    time.Time
	cpuMS float64
}

// readLoop is the closed-loop reader: one request at a time, the next
// sent when the previous reply has been read, through warm-up and then
// segments × segLen of measurement. marks[i] is the start of segment i
// and marks[segments] the end of the window.
func readLoop(c *http.Client, url string, next func() (int, []byte), procs []*proc,
	warmup, segLen time.Duration, segments int) ([]sample, []mark, error) {
	var samples []sample
	marks := make([]mark, 0, segments+1)
	bound := time.Now().Add(warmup)
	for {
		now := time.Now()
		for len(marks) <= segments && !now.Before(bound) {
			cpu, err := cpuMillis(procs)
			if err != nil {
				return nil, nil, err
			}
			marks = append(marks, mark{now, cpu})
			bound = bound.Add(segLen)
		}
		if len(marks) > segments {
			return samples, marks, nil
		}
		id, body := next()
		status, reply, elapsed, err := post(c, url+"/v1/certain", body)
		s := sample{id: id, seg: len(marks) - 1, ms: millis(elapsed)}
		if err == nil && status == http.StatusOK {
			var a answer
			if json.Unmarshal(reply, &a) == nil {
				s.ok, s.certain, s.version, s.explain = true, a.Certain, a.Version, a.Explain
			}
		}
		samples = append(samples, s)
	}
}

// writeRec is one write of the open-loop writer.
type writeRec struct {
	due, sent time.Time
	lateMS    float64 // how long after its due time it was sent
	ms        float64 // due time → acknowledgement
	ok        bool
	version   uint64
	walBytes  int64 // size of the WAL right after the acknowledgement
}

// writeLoop applies writes at a fixed rate from start until end, one in
// flight at a time. A write that cannot be sent at its due time is sent
// as soon as the previous one is acknowledged and is still timed from
// when it was due, so a stall is charged to every write it delays.
func writeLoop(c *http.Client, url string, writes []write, start, end time.Time,
	interval time.Duration, walSize func() int64) []writeRec {
	var recs []writeRec
	for i, w := range writes {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		path := "/v1/db/insert"
		if w.Del {
			path = "/v1/db/delete"
		}
		body, _ := json.Marshal(map[string]string{"database": dbName, "facts": w.fact()})
		r := writeRec{due: due, sent: time.Now()}
		status, reply, _, err := post(c, url+path, body)
		done := time.Now()
		r.lateMS = millis(r.sent.Sub(due))
		r.ms = millis(done.Sub(due))
		var ack writeAck
		if err == nil && status == http.StatusOK && json.Unmarshal(reply, &ack) == nil && ack.Applied == 1 {
			r.ok, r.version = true, ack.Version
		}
		r.walBytes = walSize()
		recs = append(recs, r)
	}
	return recs
}

// frameRec is one frame a watch stream delivered.
type frameRec struct {
	watchFrame
	at time.Time
}

// watchStream subscribes to query and delivers every frame to sink until
// ctx is cancelled or the stream ends.
func watchStream(ctx context.Context, url, query string, sink func(frameRec)) error {
	body, _ := json.Marshal(map[string]string{"database": dbName, "query": query})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := (&http.Client{}).Do(req) // a stream: no overall timeout
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch %s: status %d", query, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var f watchFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("watch %s: bad frame %q", query, sc.Bytes())
		}
		sink(frameRec{f, time.Now()})
	}
	if ctx.Err() != nil {
		return nil
	}
	return fmt.Errorf("watch %s: stream ended: %v", query, sc.Err())
}
