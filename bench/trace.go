package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The traced run reads the instruments the program already serves —
// explain.stages in every reply, the span ring at GET /debug/traces and
// the counters of GET /v1/stats — and adds no instrument of its own
// inside the program. Layers those spans do not separate are timed from
// outside by bench/layers on the same generated inputs.

// spanView and traceView mirror the JSON of GET /debug/traces.
type spanView struct {
	Name        string `json:"name"`
	OffsetNanos int64  `json:"offsetNanos"`
	DurNanos    int64  `json:"durNanos"`
	Attrs       []struct {
		Key   string `json:"key"`
		Value string `json:"value"`
	} `json:"attrs"`
	Error string `json:"error"`
}

type traceView struct {
	ID       string     `json:"id"`
	Name     string     `json:"name"`
	DurNanos int64      `json:"durNanos"`
	Spans    []spanView `json:"spans"`
}

// spanOut is one span as written to trace-<workload>.json. The root
// span of a trace carries the request's name and whole duration.
type spanOut struct {
	Process string            `json:"process"`
	Trace   string            `json:"trace"`
	Name    string            `json:"name"`
	Offset  int64             `json:"offset_ns"`
	Dur     int64             `json:"dur_ns"`
	Self    int64             `json:"self_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// selfTimes returns, for each interval, its length minus the part that
// the intervals lying inside it cover. An interval equal to an earlier
// one counts as inside it.
func selfTimes(offset, dur []int64) []int64 {
	self := make([]int64, len(dur))
	for i := range dur {
		lo, hi := offset[i], offset[i]+dur[i]
		type iv struct{ lo, hi int64 }
		var inside []iv
		for j := range dur {
			jlo, jhi := offset[j], offset[j]+dur[j]
			if j == i || jlo < lo || jhi > hi || (jlo == lo && jhi == hi && j < i) {
				continue
			}
			inside = append(inside, iv{jlo, jhi})
		}
		sort.Slice(inside, func(a, b int) bool { return inside[a].lo < inside[b].lo })
		covered, end := int64(0), lo
		for _, c := range inside {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[i] = dur[i] - covered
	}
	return self
}

// flatten turns one process's traces into output spans with self times.
func flatten(process string, traces []traceView) []spanOut {
	var out []spanOut
	for _, tr := range traces {
		offset, dur := []int64{0}, []int64{tr.DurNanos}
		for _, s := range tr.Spans {
			offset, dur = append(offset, s.OffsetNanos), append(dur, s.DurNanos)
		}
		self := selfTimes(offset, dur)
		out = append(out, spanOut{Process: process, Trace: tr.ID, Name: tr.Name, Dur: tr.DurNanos, Self: self[0]})
		for i, s := range tr.Spans {
			o := spanOut{Process: process, Trace: tr.ID, Name: s.Name, Offset: s.OffsetNanos, Dur: s.DurNanos, Self: self[i+1], Error: s.Error}
			for _, a := range s.Attrs {
				if o.Attrs == nil {
					o.Attrs = map[string]string{}
				}
				o.Attrs[a.Key] = a.Value
			}
			out = append(out, o)
		}
	}
	return out
}

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Engine struct {
		CacheHits    float64 `json:"cacheHits"`
		CacheMisses  float64 `json:"cacheMisses"`
		ResultHits   float64 `json:"resultHits"`
		ResultMisses float64 `json:"resultMisses"`
	} `json:"engine"`
	Server map[string]any `json:"server"`
}

// counter sums the registry series of one family whose labels contain
// every given `key="value"` fragment.
func (d *statsDoc) counter(family string, labels ...string) float64 {
	var sum float64
next:
	for name, v := range d.Server {
		if name != family && !strings.HasPrefix(name, family+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(name, l) {
				continue next
			}
		}
		if f, ok := v.(float64); ok {
			sum += f
		}
	}
	return sum
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func checkpoints(c *http.Client, t *topo) (float64, error) {
	var info struct {
		Databases []struct {
			Checkpoints float64 `json:"checkpoints"`
		} `json:"databases"`
	}
	if _, _, err := getJSON(c, t.url+"/v1/db/info", &info); err != nil {
		return 0, err
	}
	var n float64
	for _, d := range info.Databases {
		n += d.Checkpoints
	}
	return n, nil
}

// runTraced is the per-layer run. Half of the time goes to a window
// with tracing off, the other half to a fresh server with
// -trace-sample 1 and "explain": true on every request; the difference
// of the two medians is the cost of tracing. Then the spans are
// harvested and the probes run.
func runTraced(cfg config, workload string, stamp map[string]any) (*result, error) {
	r := &result{Workload: workload, Traced: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	half := cfg.window() / 2
	in, err := generate(workload, cfg.Seed, cfg.Keys, writeCount(cfg, half))
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

	t, _, err := boot(cfg, c, in, filepath.Join(dir, "plain"), false)
	if err != nil {
		return nil, err
	}
	// The untraced half is cut into segments like an end-to-end window, so
	// that the traced run too can say how far its segments disagree.
	plain, err := measure(cfg, c, t, in, false, cfg.Segments, half/time.Duration(cfg.Segments))
	t.kill()
	if err != nil {
		return nil, err
	}
	lat, rate, cpu, err := segmentSeries(plain)
	if err != nil {
		return nil, err
	}
	segmentSpreads(r, lat, rate, cpu)
	var plainMS []float64
	for _, l := range lat {
		plainMS = append(plainMS, l...)
	}
	plainP50 := median(plainMS)

	t, _, err = boot(cfg, c, in, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, err
	}
	defer func() { t.kill() }()
	var before, after statsDoc
	if _, _, err := getJSON(c, t.url+"/v1/stats", &before); err != nil {
		return nil, err
	}
	var ckptBefore float64
	if workload == "mixed_rw" {
		if ckptBefore, err = checkpoints(c, t); err != nil {
			return nil, err
		}
	}
	w, err := measure(cfg, c, t, in, true, 1, half)
	if err != nil {
		return nil, err
	}
	if _, _, err := getJSON(c, t.url+"/v1/stats", &after); err != nil {
		return nil, err
	}
	delta := func(family string, labels ...string) float64 {
		return after.counter(family, labels...) - before.counter(family, labels...)
	}

	// Harvest the span rings of every process.
	var spans []spanOut
	front := map[string]traceView{}
	for _, p := range t.procs {
		var doc struct {
			Traces []traceView `json:"traces"`
		}
		if _, _, err := getJSON(c, p.url+"/debug/traces?limit="+traceBuffer, &doc); err != nil {
			return nil, err
		}
		spans = append(spans, flatten(p.name, doc.Traces)...)
		if p.url == t.url {
			for _, tr := range doc.Traces {
				front[tr.ID] = tr
			}
		}
	}

	// Stage timings come with every reply; spans are joined by trace ID.
	stages := map[string][]float64{}
	var clientMS, requestUS, rpcUS, mergeUS, nodes, touched []float64
	for _, s := range w.samples {
		if !s.ok || s.seg != 0 || s.explain == nil {
			continue
		}
		clientMS = append(clientMS, s.ms)
		nodes = append(nodes, float64(s.explain.RewritingSize))
		touched = append(touched, float64(len(s.explain.Shards)))
		var gather float64
		for _, st := range s.explain.Stages {
			stages[st.Name] = append(stages[st.Name], float64(st.Nanos)/1e3)
			if st.Name == "gather" {
				gather = float64(st.Nanos) / 1e3
			}
		}
		tr, ok := front[s.explain.TraceID]
		if !ok {
			continue // overwritten in the ring
		}
		requestUS = append(requestUS, float64(tr.DurNanos)/1e3)
		var rpc float64
		for _, sp := range tr.Spans {
			if sp.Name == "rpc" {
				rpc += float64(sp.DurNanos) / 1e3
			}
		}
		if gather > 0 {
			rpcUS = append(rpcUS, rpc)
			mergeUS = append(mergeUS, gather-rpc)
		}
	}
	var walUS []float64
	for _, tr := range front {
		if strings.HasPrefix(tr.Name, "POST /v1/db/insert") || strings.HasPrefix(tr.Name, "POST /v1/db/delete") {
			for _, sp := range tr.Spans {
				if sp.Name == "wal-append" {
					walUS = append(walUS, float64(sp.DurNanos)/1e3)
				}
			}
		}
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return share(s, float64(len(xs)))
	}
	// setMedian records a median, or nothing for a layer no read reached.
	setMedian := func(name string, xs []float64) { r.setQuantile(name, xs, 0.5) }
	tracedP50 := median(clientMS)
	setMedian("server.request_us", requestUS)
	r.set("server.http_overhead_us", tracedP50*1e3-median(requestUS), len(requestUS))
	r.set("server.rejected_share", share(delta("rejected_total"), delta("requests_total")), 0)
	setMedian("server.router.gather_us", stages["gather"])
	setMedian("server.router.rpc_us", rpcUS)
	setMedian("server.router.merge_us", mergeUS)
	r.set("server.router.rpcs_per_read", share(delta("shard_rpc_total"), float64(len(w.samples))), 0)
	r.set("shard.touched_shards_per_read", mean(touched), len(touched))
	setMedian("parse.query_us", stages["parse"])
	setMedian("parse.facts_stage_us", stages["parse-facts"])
	setMedian("engine.prepare_us", stages["prepare"])
	setMedian("engine.eval_stage_us", stages["eval"])
	r.set("core.rewriting_nodes", mean(nodes), len(nodes))
	planHits := after.Engine.CacheHits - before.Engine.CacheHits
	planMisses := after.Engine.CacheMisses - before.Engine.CacheMisses
	if planHits+planMisses > 0 {
		r.set("engine.plan_cache_hit_share", planHits/(planHits+planMisses), int(planHits+planMisses))
	}
	resHits := after.Engine.ResultHits - before.Engine.ResultHits
	resMisses := after.Engine.ResultMisses - before.Engine.ResultMisses
	if resHits+resMisses > 0 {
		r.set("engine.result_cache_hit_share", resHits/(resHits+resMisses), int(resHits+resMisses))
	}
	if evals := delta("eval_total"); evals > 0 {
		r.set("engine.bitmap_eval_share", delta("eval_total", `strategy="compiled-bitmap"`)/evals, int(evals))
	}
	setMedian("store.wal_append_us", walUS)
	if decided := delta("delta_reeval_total"); decided > 0 {
		r.set("delta.reeval_share", (decided-delta("delta_reeval_total", `outcome="skipped"`))/decided, int(decided))
	}
	r.set("obs.traces_dropped", after.counter("traces_dropped")-before.counter("traces_dropped"), 0)
	r.set("obs.trace_overhead_share", share(tracedP50-plainP50, plainP50), len(clientMS))

	if workload == "mixed_rw" {
		ckptAfter, err := checkpoints(c, t)
		if err != nil {
			return nil, err
		}
		r.set("store.checkpoints", ckptAfter-ckptBefore, 0)
	}
	var exportUS, exportBytes []float64
	for _, shard := range t.shards {
		for i := 0; i < 5; i++ {
			var discard struct{}
			n, took, err := getJSON(c, shard+"/v1/db/facts?db="+dbName, &discard)
			if err != nil {
				return nil, err
			}
			exportUS, exportBytes = append(exportUS, float64(took)/1e3), append(exportBytes, float64(n))
		}
	}
	setMedian("server.facts_export_us", exportUS)
	if len(exportBytes) > 0 {
		r.set("server.router.facts_bytes_per_read", mean(exportBytes), len(t.shards))
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

	probes, err := runProbes(cfg, in, dir)
	if err != nil {
		r.Notes = append(r.Notes, "probe metrics absent: "+err.Error())
		fmt.Fprintln(os.Stderr, "bench: probe metrics absent:", err)
	}
	for name, v := range probes {
		r.set(name, v, 0)
	}
	if warm, ok := probes["fo.warm_eval_ns"]; ok {
		r.set("fo.eval_share", share(warm/1e6, plainP50), 0)
	}

	out := map[string]any{"stamp": stamp, "workload": workload, "workload_digest": r.Digest,
		"layers": r.Metrics, "samples": r.Samples, "probes": probes, "spans": spans}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644); err != nil {
		return nil, err
	}
	return r, nil
}

// probeInput is what bench/layers receives: generated inputs only.
type probeInput struct {
	Workload string       `json:"workload"`
	Facts    string       `json:"facts"`   // the store database, "" on inline_eval
	Queries  []string     `json:"queries"` // a sample of the workload's questions
	Bodies   []string     `json:"bodies"`  // the same, as /v1/certain request bodies
	Inline   []inlineCase `json:"inline"`
	Insert   []string     `json:"insert"` // rel, key, value of a fact absent from Facts
	Keys     []string     `json:"keys"`   // ground keys for watch registrations
}

// runProbes runs bench/layers on the workload's inputs and returns the
// metrics it printed.
func runProbes(cfg config, in *inputs, dir string) (map[string]float64, error) {
	if cfg.layers == "" {
		return nil, fmt.Errorf("bench/layers did not build")
	}
	pi := probeInput{Workload: in.workload, Facts: in.facts, Inline: in.inline}
	next := in.stream(false)
	for i := 0; i < 64; i++ {
		id, body := next()
		switch in.workload {
		case "mixed_rw":
			pi.Queries = append(pi.Queries, in.pool[id])
		case "inline_eval":
			pi.Queries = append(pi.Queries, in.inline[id].Query)
		default:
			pi.Queries = append(pi.Queries, pointQuery(keyName(id)))
		}
		if i < 16 {
			pi.Bodies = append(pi.Bodies, string(body))
		}
	}
	if in.base != nil {
		for i := 0; i < in.keys && i < 10000; i++ {
			pi.Keys = append(pi.Keys, keyName(i))
		}
		for v := 0; v < domainSize; v++ {
			if !in.base.has("R", keyName(0), valName(v)) {
				pi.Insert = []string{"R", keyName(0), valName(v)}
				break
			}
		}
	}
	b, err := json.Marshal(pi)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "probe-input.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.layers, "-input", path, "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench/layers: %w", err)
	}
	var probes map[string]float64
	if err := json.Unmarshal(out, &probes); err != nil {
		return nil, fmt.Errorf("bench/layers output: %w", err)
	}
	return probes, nil
}
