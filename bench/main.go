// Command bench is the repository's benchmark: it builds cqad from the
// working tree, boots real cqad processes, drives them over loopback
// HTTP with inputs generated from a seed, checks every answer against
// an oracle, and prints every metric by name with its unit. See
// README.md in this directory for the definitions.
//
//	go run ./bench -seed 1            all four workloads, untraced then traced
//	go run ./bench -aa                the whole set twice; exits non-zero if a metric differs by more than its bound
//	go run ./bench -quick             a smoke run of about 25 s
//	bash bench/run.sh --workload point_single --seed 1 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one run,
// and a JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	pinSelf()
	workload := flag.String("workload", "", "run this one workload and print the result object as the last line")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 30, "length of the measured window, cut into -segments")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	aa := flag.Bool("aa", false, "run the whole set twice on the same code and seed and compare against the bounds")
	quick := flag.Bool("quick", false, "smoke run: 1 segment of 2 s, 2 000 keys, one set-up")
	keys := flag.Int("keys", 20000, "keys of relation R in the store workloads")
	segments := flag.Int("segments", 5, "segments per window; each end-to-end number is the median over them")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	setups := setupsPerRun
	if *quick {
		*seconds, *segments, *keys, setups = 2, 1, 2000, 1
	}
	window := time.Duration(*seconds) * time.Second
	cfg := config{
		Seed: *seed, Keys: *keys, Segments: *segments, Segment: window / time.Duration(max(*segments, 1)),
		Warmup: min(max(window/15, 500*time.Millisecond), 2*time.Second),
		Setups: setups,
	}
	if err := run(cfg, *workload, *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, workload string, traced, aa bool) error {
	if cfg.Keys < 20 || cfg.Segments < 1 || cfg.Segment <= 0 {
		return fmt.Errorf("keys ≥ 20, segments ≥ 1 and seconds ≥ 1 are required")
	}
	bin := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	var err error
	if cfg.cqad, err = buildBinary(bin, "./cmd/cqad"); err != nil {
		return err
	}
	if cfg.layers, err = buildBinary(bin, "./bench/layers"); err != nil {
		// The end-to-end numbers must survive a change that breaks the probes.
		fmt.Fprintln(os.Stderr, "bench: per-layer probes unavailable:", err)
		cfg.layers = ""
	}
	stamp := stampOf(cfg)
	b, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", b)

	if workload != "" {
		var r *result
		if traced {
			r, err = runTraced(cfg, workload, stamp)
		} else {
			r, err = runUntraced(cfg, workload)
		}
		if err != nil {
			return err
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		printResult(r, defs)
		return printContract(r, defs)
	}

	first, err := runSet(cfg, stamp)
	if err != nil {
		return err
	}
	if !aa {
		return nil
	}
	fmt.Println("\n== second set, same code and seed ==")
	second, err := runSet(cfg, stamp)
	if err != nil {
		return err
	}
	return compare(first, second)
}

// runSet runs every workload, untraced then traced, prints the numbers
// and stores them with the stamp.
func runSet(cfg config, stamp map[string]any) (map[string]*result, error) {
	set := map[string]*result{}
	var all []*result
	for _, w := range workloads {
		r, err := runUntraced(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		printResult(r, endToEnd)
		set[w] = r
		short := cfg
		short.Segment = min(cfg.window(), 12*time.Second) / time.Duration(cfg.Segments) // the traced run halves the window
		tr, err := runTraced(short, w, stamp)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w, err)
		}
		printResult(tr, perLayer)
		printAccounting(tr)
		all = append(all, r, tr)
	}
	if p50 := set["point_single"].Metrics["read_p50_ms"]; p50 > 0 {
		fmt.Printf("\npoint_router.read_p50_ms / point_single.read_p50_ms = %.1f\n", set["point_router"].Metrics["read_p50_ms"]/p50)
	}
	out, err := json.MarshalIndent(map[string]any{"stamp": stamp, "results": all}, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", cfg.Seed))
	fmt.Println("written", path)
	return set, os.WriteFile(path, out, 0o644)
}

// stampOf describes the environment and the settings of a run.
func stampOf(cfg config) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": processors(), "pinned": os.Getenv(pinnedEnv) != "",
		"server_gomaxprocs": 1, "kernel": strings.TrimSpace(string(kernel)),
		"config": cfg, "writes_per_s": writesPerSecond, "checkpoint_every": checkpointEvery,
		"store_facts_per_key": "R: every key, S: every second key, T: keys/20; 1 block in 5 inconsistent",
		"load":                "closed loop, 1 reader; mixed_rw adds 1 open-loop writer and 8 passive watch streams",
		"flush":               "WAL written without -fsync; SIGKILL leaves the OS cache intact",
	}
}

// printResult prints the metrics of defs by name with unit and sample
// count. An untraced run also has the client-side numbers of its
// window; they follow the end-to-end ones.
func printResult(r *result, defs []metricDef) {
	kind := "end to end, tracing off"
	if r.Traced {
		kind = "per layer, traced run"
	}
	fmt.Printf("\n== %s (%s) digest=%s attempted=%d failed=%d ==\n", r.Workload, kind, r.Digest, r.Attempted, r.Failed)
	line := func(d metricDef, mustHave bool) {
		v, ok := r.Metrics[d.Name]
		switch n := r.Samples[d.Name]; {
		case !ok && mustHave:
			fmt.Printf("  %-44s absent\n", d.Name)
		case !ok:
		case n > 0:
			fmt.Printf("  %-44s %14.4f %-6s n=%d\n", d.Name, v, d.Unit, n)
		default:
			fmt.Printf("  %-44s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range defs {
		line(d, true)
	}
	if !r.Traced {
		for _, d := range perLayer {
			line(d, false)
		}
	}
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
}

// printAccounting shows how far the traced run's layer times account
// for the client's median.
func printAccounting(r *result) {
	m := r.Metrics
	stages := m["parse.query_us"] + m["parse.facts_stage_us"] + m["engine.prepare_us"] + m["server.router.gather_us"] + m["engine.eval_stage_us"]
	client := m["server.request_us"] + m["server.http_overhead_us"]
	fmt.Printf("  accounting: stages %.1f us + http overhead %.1f us = %.1f %% of the traced client p50 (%.1f us)\n",
		stages, m["server.http_overhead_us"], 100*share(stages+m["server.http_overhead_us"], client), client)
}

// printContract prints the result object BENCHMARK.json's driver reads:
// the last line of standard output. The driver wants every name of defs
// with a number, so a per-layer metric this workload has no value for
// (absent everywhere else) carries 0 here.
func printContract(r *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// compare prints, per end-to-end metric and workload, how far two sets
// of the same code are apart, against the metric's bound. The test is
// symmetric — |x − y| over the smaller of the two — because either set
// can be the disturbed one; "worse by" is for a change against its parent.
func compare(a, b map[string]*result) error {
	fmt.Printf("\n%-14s %-22s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "apart by", "bound")
	violations := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a[w].Metrics[d.Name], b[w].Metrics[d.Name]
			apart := share(math.Abs(x-y), min(x, y))
			flag := ""
			if apart > d.Bound {
				flag = "  VIOLATION"
				violations++
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %8.1f%% %6.0f%%%s\n", w, d.Name, x, y, 100*apart, 100*d.Bound, flag)
		}
		if a[w].Failed+b[w].Failed > 0 {
			fmt.Printf("%-14s failed operations: %d and %d  VIOLATION\n", w, a[w].Failed, b[w].Failed)
			violations++
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d metric(s) further apart than their bound between two runs of the same code", violations)
	}
	return nil
}
