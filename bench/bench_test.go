package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"testing"

	"cqa/internal/core"
	"cqa/internal/parse"
)

func TestPercentileAndTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMedianOfSegments(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 100}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := spread([]float64{9, 10, 12}); got != 0.3 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	// Five segments of 200 samples support p95 each: one disturbed
	// segment does not move the median of the per-segment values.
	segs := make([][]float64, 5)
	for i := range segs {
		for j := 1; j <= 200; j++ {
			v := float64(j)
			if i == 4 {
				v *= 10
			}
			segs[i] = append(segs[i], v)
		}
	}
	if got := segmentQuantile(segs, 0.95); got != 190 {
		t.Errorf("segmentQuantile over supported segments = %v, want 190", got)
	}
	// Segments of 40 samples do not; the samples are pooled.
	for i := range segs {
		segs[i] = segs[i][:40]
	}
	if got := segmentQuantile(segs, 0.95); got != 300 {
		t.Errorf("segmentQuantile over pooled samples = %v, want 300", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// A request of 100 with children [10,40) and [30,60) that overlap,
	// the first holding a grandchild [15,20), and one child after them.
	offset := []int64{0, 10, 30, 15, 70}
	dur := []int64{100, 30, 30, 5, 10}
	want := []int64{40, 25, 30, 5, 10}
	for i, got := range selfTimes(offset, dur) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestWritesAreEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := genStore(rng, 50)
	present := map[string]bool{}
	for rel, blocks := range s {
		for k, b := range blocks {
			for _, v := range b {
				present[rel+k+v] = true
			}
		}
	}
	hot := []string{keyName(1), keyName(2)}
	dels := 0
	for i := 0; i < 5000; i++ {
		w := nextWrite(rng, s, 50, hot)
		id := w.Rel + w.Key + w.Val
		if w.Del != present[id] {
			t.Fatalf("write %d %+v is a no-op on the database", i, w)
		}
		present[id] = !w.Del
		if w.Del {
			dels++
		}
	}
	if dels < 1000 || dels > 4000 {
		t.Errorf("%d deletes in 5000 writes: the generator is one-sided", dels)
	}
	for rel, blocks := range s {
		for k, b := range blocks {
			for _, v := range b {
				if !present[rel+k+v] {
					t.Errorf("shadow holds %s(%s | %s), which the write log deleted", rel, k, v)
				}
			}
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 200, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 200, 30)
		c, _ := generate(w, 8, 200, 30)
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave two request streams", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: two seeds gave the same request stream", w)
		}
	}
}

// The block-by-block oracle must agree with enumeration of all repairs
// wherever the latter is feasible: a store of four keys, through a
// sequence of writes, for pool queries of every shape and the point
// query.
func TestOracleAgreesWithEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := genStore(rng, 20)
	const keys = 4 // at most 3^9 repairs
	for k := keys; k < 20; k++ {
		for _, rel := range []string{"R", "S", "T"} {
			delete(s[rel], keyName(k))
		}
	}
	pool := genPool()
	oracle := newScanOracle(s, pool)
	for step := 0; step < 25; step++ {
		d, err := parse.Database(s.facts())
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range []string{"R", "S", "T"} {
			if err := d.DeclareRelation(rel, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		got := oracle.verdicts()
		for i := 0; i < len(pool); i += 5 {
			src := pool[i]
			want, err := core.Certain(mustQuery(src), d, core.EngineNaive)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("step %d: %s: block-local oracle says %v, enumeration %v", step, src, got[i], want)
			}
		}
		for k := 0; k < keys; k++ {
			want, _ := core.Certain(mustQuery(pointQuery(keyName(k))), d, core.EngineNaive)
			if got := pointTruth(s, keyName(k)); got != want {
				t.Fatalf("step %d: point query on %s: oracle %v, enumeration %v", step, keyName(k), got, want)
			}
		}
		oracle.update(nextWrite(rng, s, keys, nil).Key)
	}
}

func TestInlineCasesAreDecidable(t *testing.T) {
	cases := genInline(rand.New(rand.NewSource(5)))
	if len(cases) != len(inlineMix)*inlineDBs {
		t.Fatalf("%d inline cases, want %d", len(cases), len(inlineMix)*inlineDBs)
	}
	verdicts := map[string][2]int{}
	for _, c := range cases {
		v, err := inlineTruth(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Query, err)
		}
		n := verdicts[c.Class]
		if v {
			n[1]++
		} else {
			n[0]++
		}
		verdicts[c.Class] = n
	}
	for class, n := range verdicts {
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("class %s: %d not certain, %d certain; both verdicts should occur", class, n[0], n[1])
		}
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (cqad (a) b) S 1 4242 4242 0 -1 4194560 1024 0 0 0 37 5 0 0 20 0 8 0 12345 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	if got, err := parseStatCPU(stat); err != nil || got != 42 {
		t.Errorf("parseStatCPU = %d, %v; want 42 ticks", got, err)
	}
	if _, err := parseStatCPU("no command here"); err == nil {
		t.Error("parseStatCPU accepted a line without a command field")
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\tcqad\nVmPeak:\t  999 kB\nVmHWM:\t   65536 kB\nVmRSS:\t   1000 kB\n"
	if got, err := parseStatusHWM(status); err != nil || got != 65536 {
		t.Errorf("parseStatusHWM = %d, %v; want 65536", got, err)
	}
	if _, err := parseStatusHWM("Name:\tcqad\n"); err == nil {
		t.Error("parseStatusHWM accepted a status without VmHWM")
	}
}

// BENCHMARK.json is what later changes are judged against; the driver's
// printed names must be exactly the file's.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(file.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the driver; 2 to 8 allowed", n, len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range file.Workloads {
		if w.Name != workloads[i] || !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d is %q in the file, %q in the driver", i, w.Name, workloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got, want []metricDef, limit int) {
		if len(got) < 1 || len(got) > limit || len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the driver; 1 to %d allowed", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			if m != want[i] {
				t.Errorf("%s metric %d: file has %+v, driver has %+v", kind, i, m, want[i])
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q (unit %q): bad or repeated name or unit", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, 16)
	check("per_layer", file.PerLayer, perLayer, 128)
	for _, m := range file.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v out of contract", file.RunSeconds, file.Paths)
	}
}

// Two sets of the same code can differ either way: -aa must object to a
// slow first set as much as to a slow second one.
func TestCompareIsSymmetric(t *testing.T) {
	set := func(p50 float64) map[string]*result {
		out := map[string]*result{}
		for _, w := range workloads {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = 1
			}
			m["read_p50_ms"] = p50
			out[w] = &result{Workload: w, Metrics: m}
		}
		return out
	}
	if err := compare(set(1), set(1.2)); err != nil {
		t.Errorf("20 %% apart, inside the bound of 25 %%: %v", err)
	}
	if compare(set(1), set(1.3)) == nil || compare(set(1.3), set(1)) == nil {
		t.Error("30 % apart must fail whichever set is the slow one")
	}
}
