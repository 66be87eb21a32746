package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one run's settings; every field is printed in the stamp.
type config struct {
	Seed     int64         `json:"seed"`
	Keys     int           `json:"keys"`
	Segments int           `json:"segments"`
	Segment  time.Duration `json:"segment_ns"`
	Warmup   time.Duration `json:"warmup_ns"`
	Setups   int           `json:"setups"`

	cqad   string // path of the cqad binary built from the working tree
	layers string // path of the probe binary; "" when it did not build
}

func (c config) window() time.Duration { return time.Duration(c.Segments) * c.Segment }

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Digest    string             `json:"workload_digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // sample count behind a metric
	Notes     []string           `json:"notes,omitempty"`
}

// set records a metric with the number of samples behind it (0 when
// there is no such count). A metric the workload gives no value to is
// not set at all: it prints as absent, never as 0.
func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = v
	if n > 0 {
		r.Samples[name] = n
	}
}

// setQuantile records the nearest-rank p-quantile of xs, or nothing when
// xs is empty.
func (r *result) setQuantile(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		return
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r.set(name, percentile(s, p), len(s))
}

func (r *result) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf("%d failed: ", n)+fmt.Sprintf(format, args...))
}

// topo is a booted serving topology.
type topo struct {
	procs   []*proc
	url     string   // where reads and writes go
	shards  []string // the shard servers behind a router
	dataDir string   // the durable server's data directory
	args    []string // the arguments of the last server started, for a restart
	dir     string
	loaded  uint64 // store version once the database was loaded
}

func (t *topo) kill() {
	for _, p := range t.procs {
		p.kill()
	}
}

// traceBuffer is the span ring of a traced server: room for every
// request of the traced window at point_single's rate, so that the few
// write requests of mixed_rw are still in it when it is harvested.
const traceBuffer = "65536"

// boot starts the workload's processes, loads the database and waits
// for /readyz; the returned time runs from the first spawn to then.
func boot(cfg config, c *http.Client, in *inputs, dir string, traced bool) (*topo, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	args := []string{"-max-inflight", "512", "-max-body", "16777216", "-trace-sample", "0"}
	if traced {
		args = []string{"-max-inflight", "512", "-max-body", "16777216", "-trace-sample", "1", "-trace-buffer", traceBuffer}
	}
	t := &topo{dir: dir}
	start := time.Now()
	spawn := func(name string, extra ...string) (*proc, error) {
		t.args = append(append([]string(nil), args...), extra...)
		p, err := startCqad(cfg.cqad, dir, name, t.args...)
		if err == nil {
			t.procs = append(t.procs, p)
		}
		return p, err
	}
	var front *proc
	var err error
	switch in.workload {
	case "point_router":
		for i := 0; i < 2 && err == nil; i++ {
			var p *proc
			if p, err = spawn(fmt.Sprintf("shard%d", i)); err == nil {
				t.shards = append(t.shards, p.url)
			}
		}
		if err == nil {
			front, err = spawn("router", "-route", strings.Join(t.shards, ","))
		}
	case "mixed_rw":
		t.dataDir = filepath.Join(dir, "data")
		front, err = spawn("cqad", "-data", t.dataDir,
			"-checkpoint-every", fmt.Sprint(checkpointEvery), "-watch-heartbeat", "250ms")
	default:
		front, err = spawn("cqad")
	}
	if err == nil {
		t.url = front.url
		for _, p := range t.procs {
			if err = waitReady(c, p.url); err != nil {
				break
			}
		}
	}
	if err == nil && in.facts != "" {
		var ack writeAck
		err = postJSON(c, t.url+"/v1/db/create", map[string]string{"name": dbName, "facts": in.facts}, &ack)
		t.loaded = ack.Version
	}
	if err == nil {
		err = waitReady(c, t.url)
	}
	if err != nil {
		t.kill()
		return nil, 0, err
	}
	return t, time.Since(start), nil
}

// walSize is the total size of the WAL files under the data directory.
func (t *topo) walSize() int64 {
	var n int64
	files, _ := filepath.Glob(filepath.Join(t.dataDir, "*.wal"))
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			n += st.Size()
		}
	}
	return n
}

// window is what one measured window collected.
type window struct {
	samples []sample
	marks   []mark
	writes  []writeRec
	frames  [][]frameRec // per watch
	headers []uint64     // per watch: version of its header frame
}

// measure runs warm-up plus segments × segLen of the workload against a
// booted topology: the closed-loop reader and, on mixed_rw, the paced
// writer and the passive watch streams beside it.
func measure(cfg config, c *http.Client, t *topo, in *inputs, explain bool, segments int, segLen time.Duration) (*window, error) {
	w := &window{}
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var watchErr error
	writerDone := false
	if in.workload == "mixed_rw" {
		w.frames = make([][]frameRec, len(in.watches))
		w.headers = make([]uint64, len(in.watches))
		ready := make(chan struct{}, len(in.watches)) // one send per watch
		for i, q := range in.watches {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				first := true
				err := watchStream(ctx, t.url, q, func(f frameRec) {
					mu.Lock()
					defer mu.Unlock()
					if first {
						first = false
						w.headers[i] = f.Version
						ready <- struct{}{}
						return
					}
					w.frames[i] = append(w.frames[i], f)
				})
				if err != nil {
					mu.Lock()
					watchErr = err
					mu.Unlock()
					if first {
						ready <- struct{}{}
					}
				}
			}(i, q)
		}
		for range in.watches {
			<-ready
		}
		start := time.Now()
		end := start.Add(cfg.Warmup + time.Duration(segments)*segLen)
		interval := time.Second / writesPerSecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := writeLoop(c, t.url, in.writes, start, end, interval, t.walSize)
			mu.Lock()
			w.writes, writerDone = recs, true
			mu.Unlock()
		}()
	}
	var err error
	w.samples, w.marks, err = readLoop(c, t.url, in.stream(explain), t.procs, cfg.Warmup, segLen, segments)
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	if in.workload == "mixed_rw" {
		// The writer stops at the end of the window; the streams are read
		// until each has reported the last acknowledged version.
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			mu.Lock()
			done := writerDone
			if done {
				last := t.loaded
				for _, rec := range w.writes {
					if rec.ok && rec.version > last {
						last = rec.version
					}
				}
				for i := range w.frames {
					seen := w.headers[i]
					if n := len(w.frames[i]); n > 0 {
						seen = w.frames[i][n-1].Version
					}
					done = done && seen >= last
				}
			}
			mu.Unlock()
			if done {
				break
			}
		}
		cancel()
		wg.Wait()
		if watchErr != nil {
			return nil, watchErr
		}
	}
	return w, nil
}

// check validates every answer of a window against the oracle, outside
// the measured time, and counts attempts and failures.
func check(in *inputs, t *topo, w *window, r *result) {
	var transport, wrong, unplaced int
	for _, s := range w.samples {
		r.Attempted++
		if !s.ok {
			transport++
			continue
		}
		want, err := in.expected(s.id, s.version, t.loaded)
		switch {
		case err != nil:
			unplaced++
		case want != s.certain:
			wrong++
		}
	}
	r.fail(transport, "reads with a transport error, a non-200 status or an undecodable body")
	r.fail(wrong, "reads answered against the oracle")
	r.fail(unplaced, "reads the oracle could not decide, or answered at a version no write produced")
	if in.workload != "mixed_rw" {
		return
	}
	var lost, misnumbered int
	acked := 0
	for i, rec := range w.writes {
		r.Attempted++
		switch {
		case !rec.ok:
			lost++
		case rec.version != t.loaded+uint64(i)+1:
			misnumbered++
		default:
			acked++
		}
	}
	r.fail(lost, "writes not acknowledged as one applied fact")
	r.fail(misnumbered, "writes acknowledged at an unexpected version")
	// Every flip frame must be true at its version, and every change of
	// the oracle's verdict after the header must have arrived as a flip.
	var badFlip, missedFlip int
	for i, frames := range w.frames {
		got := map[uint64]bool{}
		for _, f := range frames {
			if f.Type != "flip" {
				continue
			}
			r.Attempted++
			n := int(f.Version) - int(t.loaded)
			if n < 1 || n > acked || in.watchTruth(n, i) != f.Verdict || in.watchTruth(n-1, i) == f.Verdict {
				badFlip++
			}
			got[f.Version] = true
		}
		for n := int(w.headers[i]) - int(t.loaded) + 1; n >= 1 && n <= acked; n++ {
			if in.watchTruth(n, i) != in.watchTruth(n-1, i) && !got[t.loaded+uint64(n)] {
				r.Attempted++
				missedFlip++
			}
		}
	}
	r.fail(badFlip, "flip frames that contradict the oracle at their version")
	r.fail(missedFlip, "verdict changes no flip frame reported")
}

// durability closes mixed_rw: the server is killed with SIGKILL after
// the last acknowledged write and restarted on the same data directory;
// the served version and a 200-key sample of point reads must match the
// shadow. It returns the time from spawn to a verified version. SIGKILL
// leaves the operating system's cache intact, so this checks the WAL's
// contents and replay, not what the disk holds.
func durability(cfg config, c *http.Client, t *topo, in *inputs, w *window, r *result) (time.Duration, error) {
	acked := 0
	final := in.base.clone()
	for i, rec := range w.writes {
		if !rec.ok {
			break
		}
		acked = i + 1
		wr := in.writes[i]
		if wr.Del {
			final.remove(wr.Rel, wr.Key, wr.Val)
		} else {
			final.insert(wr.Rel, wr.Key, wr.Val)
		}
	}
	t.kill()
	start := time.Now()
	p, err := startCqad(cfg.cqad, t.dir, "cqad-recovered", t.args...)
	if err != nil {
		return 0, err
	}
	t.procs = []*proc{p}
	t.url = p.url
	if err := waitReady(c, p.url); err != nil {
		return 0, err
	}
	var info struct {
		Databases []struct {
			Name    string `json:"name"`
			Version uint64 `json:"version"`
		} `json:"databases"`
	}
	if _, _, err := getJSON(c, p.url+"/v1/db/info", &info); err != nil {
		return 0, err
	}
	recovered := time.Since(start)
	r.Attempted++
	if len(info.Databases) != 1 || info.Databases[0].Version != t.loaded+uint64(acked) {
		r.fail(1, "recovered database list %+v, want version %d", info.Databases, t.loaded+uint64(acked))
	}
	rng := rand.New(rand.NewSource(in.seed))
	keys := append([]string(nil), in.hot...)
	for len(keys) < 200 {
		keys = append(keys, keyName(rng.Intn(in.keys)))
	}
	wrong := 0
	for _, k := range keys {
		r.Attempted++
		var a answer
		if err := postJSON(c, p.url+"/v1/certain", json.RawMessage(certainBody(pointQuery(k), dbName, "", false)), &a); err != nil || a.Certain != pointTruth(final, k) {
			wrong++
		}
	}
	r.fail(wrong, "point reads after recovery that disagree with the shadow")
	return recovered, nil
}

// segmentSeries cuts a window into its segments: the latencies of the
// valid reads, the read rate and the servers' CPU time per completed
// operation, each per segment.
func segmentSeries(w *window) (lat [][]float64, rate, cpu []float64, err error) {
	segs := len(w.marks) - 1
	lat = make([][]float64, segs)
	ops := make([]int, segs)
	for _, s := range w.samples {
		if s.seg >= 0 && s.ok {
			lat[s.seg] = append(lat[s.seg], s.ms)
			ops[s.seg]++
		}
	}
	for _, rec := range w.writes {
		for i := 0; i < segs; i++ {
			if rec.ok && !rec.due.Before(w.marks[i].at) && rec.due.Before(w.marks[i+1].at) {
				ops[i]++
			}
		}
	}
	for i := 0; i < segs; i++ {
		if ops[i] == 0 {
			return nil, nil, nil, fmt.Errorf("segment %d completed no operation", i)
		}
		rate = append(rate, float64(len(lat[i]))/w.marks[i+1].at.Sub(w.marks[i].at).Seconds())
		cpu = append(cpu, (w.marks[i+1].cpuMS-w.marks[i].cpuMS)/float64(ops[i]))
	}
	return lat, rate, cpu, nil
}

// segmentSpreads records how far the segments of a window disagree; a
// window of one segment has no such number.
func segmentSpreads(r *result, lat [][]float64, rate, cpu []float64) {
	if len(lat) < 2 {
		return
	}
	p50 := make([]float64, len(lat))
	for i := range lat {
		p50[i] = median(lat[i])
	}
	r.set("client.segment_spread.read_ops_per_s", spread(rate), len(lat))
	r.set("client.segment_spread.read_p50_ms", spread(p50), len(lat))
	r.set("client.segment_spread.server_cpu_ms_per_op", spread(cpu), len(lat))
}

// endToEndMetrics derives the end-to-end numbers of a window.
func endToEndMetrics(t *topo, w *window, r *result) error {
	lat, rate, cpu, err := segmentSeries(w)
	if err != nil {
		return err
	}
	reads := 0
	for _, l := range lat {
		reads += len(l)
	}
	writes := 0
	first, last := w.marks[0], w.marks[len(lat)]
	for _, rec := range w.writes {
		if rec.ok && !rec.due.Before(first.at) && rec.due.Before(last.at) {
			writes++
		}
	}
	// Throughput and CPU per operation are totals over the window, not
	// medians over segments: on mixed_rw the work comes in bursts (a
	// checkpoint every 4 s, a collection of a growing heap every few
	// seconds) of which a segment holds none or one, and the median of
	// five such segments moved by 25 % between runs where the total
	// moved by 9 %. The latency is a median either way.
	r.set("read_ops_per_s", float64(reads)/last.at.Sub(first.at).Seconds(), reads)
	r.set("server_cpu_ms_per_op", (last.cpuMS-first.cpuMS)/float64(reads+writes), reads+writes)
	r.set("read_p50_ms", segmentQuantile(lat, 0.50), reads)
	rss, err := rssMB(t.procs)
	if err != nil {
		return err
	}
	r.set("server_rss_mb", rss, 0)
	segmentSpreads(r, lat, rate, cpu)
	return nil
}

// clientMetrics derives the client-side per-layer numbers of a window.
func clientMetrics(t *topo, w *window, r *result) {
	var all []float64
	certain, answered := 0, 0
	for _, s := range w.samples {
		if !s.ok {
			continue
		}
		answered++
		if s.certain {
			certain++
		}
		if s.seg >= 0 {
			all = append(all, s.ms)
		}
	}
	r.set("client.samples", float64(len(all)), 0)
	r.setQuantile("client.read_p95_ms", all, 0.95)
	if supported(len(all), 0.99) {
		r.setQuantile("client.read_p99_ms", all, 0.99)
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf("client.read_p99_ms absent: %d samples leave fewer than ten beyond p99", len(all)))
	}
	if answered > 0 {
		r.set("client.certain_share", float64(certain)/float64(answered), answered)
	}
	r.set("client.failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted)
	if w.frames == nil {
		return // no writer and no watch streams beside this window's reader
	}

	var wlat, late, walDelta []float64
	start := w.marks[0].at
	for i, rec := range w.writes {
		if !rec.ok || rec.due.Before(start) {
			continue
		}
		wlat = append(wlat, rec.ms)
		late = append(late, rec.lateMS)
		if i > 0 && rec.walBytes > w.writes[i-1].walBytes { // no checkpoint truncated the log in between
			walDelta = append(walDelta, float64(rec.walBytes-w.writes[i-1].walBytes))
		}
	}
	r.setQuantile("client.write_p50_ms", wlat, 0.5)
	r.setQuantile("client.write_p95_ms", wlat, 0.95)
	r.setQuantile("client.writer_late_ms", late, 0.95)
	if len(walDelta) > 0 {
		r.set("store.wal_bytes_per_write", median(walDelta), len(walDelta))
	}

	var lag []float64
	flips := 0
	for _, frames := range w.frames {
		for _, f := range frames {
			i := int(f.Version) - int(t.loaded) - 1
			if f.Type != "flip" || i < 0 || i >= len(w.writes) {
				continue
			}
			flips++
			if !w.writes[i].due.Before(start) {
				lag = append(lag, millis(f.at.Sub(w.writes[i].sent)))
			}
		}
	}
	r.setQuantile("client.flip_lag_p50_ms", lag, 0.5)
	r.set("delta.flips", float64(flips), 0)
}

// runUntraced is one end-to-end run: set up cfg.Setups times (the last
// topology is measured), then warm-up and the segmented window with
// tracing off, then validation.
func runUntraced(cfg config, workload string) (*result, error) {
	r := &result{Workload: workload, Metrics: map[string]float64{}, Samples: map[string]int{}}
	in, err := generate(workload, cfg.Seed, cfg.Keys, writeCount(cfg, cfg.window()))
	if err != nil {
		return nil, err
	}
	r.Digest = in.digest()
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c := newClient()
	var t *topo
	var setups []float64
	// A set-up of a few milliseconds is repeated until half a second has
	// gone into set-ups, so that its median is not one scheduling hiccup.
	for began := time.Now(); len(setups) < cfg.Setups || (time.Since(began) < 500*time.Millisecond && len(setups) < 25); {
		i := len(setups)
		if t != nil {
			t.kill()
		}
		var took time.Duration
		if t, took, err = boot(cfg, c, in, filepath.Join(dir, fmt.Sprint("boot", i)), false); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { t.kill() }()
	r.set("setup_s", median(setups), len(setups))
	w, err := measure(cfg, c, t, in, false, cfg.Segments, cfg.Segment)
	if err != nil {
		return nil, err
	}
	if err := endToEndMetrics(t, w, r); err != nil {
		return nil, err
	}
	check(in, t, w, r)
	if workload == "mixed_rw" {
		took, err := durability(cfg, c, t, in, w, r)
		if err != nil {
			return nil, err
		}
		r.set("store.recover_ms", millis(took), 1)
	}
	clientMetrics(t, w, r)
	return r, nil
}

// writeCount is how many writes the paced writer can be due in a window
// of the given length plus its warm-up; at least the 64 that the
// workload's digest covers.
func writeCount(cfg config, window time.Duration) int {
	return max(64, int((cfg.Warmup+window).Seconds()*writesPerSecond)+1)
}
