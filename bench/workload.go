package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
)

const dbName = "w"

// workloads, in run order. BENCHMARK.json repeats the names and the
// one-line reasons; README.md has the long form.
var workloads = []string{"point_single", "point_router", "mixed_rw", "inline_eval"}

const (
	watchesPoint = 4 // ground-key watches of mixed_rw, on the hot keys
	watchesScan  = 4 // scan watches of mixed_rw, drawn from the pool

	// These define mixed_rw itself: with other values its numbers are not
	// comparable to the committed reference, so they are not flags.
	writesPerSecond = 2 // the paced writer's rate
	checkpointEvery = 8 // cqad -checkpoint-every: one checkpoint every 4 s

	setupsPerRun = 3 // set-ups of an untraced run; setup_s is their median
)

// outDir holds everything a run writes: the Go build cache, binaries,
// run directories, result and trace files.
var outDir = filepath.Join("bench", "out")

// inputs is everything one workload sends, generated from the seed.
type inputs struct {
	workload string
	seed     int64
	keys     int

	base  shadow // store workloads: the database as loaded
	facts string // its text

	pool    []string     // mixed_rw: the 96 scan queries
	hot     []string     // mixed_rw: the watched keys
	watches []string     // mixed_rw: the 8 watched queries
	writes  []write      // mixed_rw: the write log, effective in order
	truth   [][]bool     // mixed_rw: truth[i] after i writes; pool verdicts, then watch verdicts
	inline  []inlineCase // inline_eval
	bodies  [][]byte     // inline_eval: plain and explain request bodies, per case

	// The oracle's verdict per inline case or per key of the point
	// query, decided when first needed: 0 = not yet, 1 = certain, 2 = not.
	verdicts []int8
}

// generate builds the inputs of one workload. nWrites bounds the write
// log of mixed_rw.
func generate(workload string, seed int64, keys, nWrites int) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed, keys: keys}
	rng := rand.New(rand.NewSource(seed))
	if workload != "inline_eval" {
		in.base = genStore(rng, keys)
		in.facts = in.base.facts()
	}
	switch workload {
	case "point_single", "point_router":
		in.verdicts = make([]int8, keys)
	case "mixed_rw":
		in.pool = genPool()
		for i := 0; i < watchesPoint; i++ {
			k := keyName(rng.Intn(keys))
			in.hot = append(in.hot, k)
			in.watches = append(in.watches, pointQuery(k))
		}
		scans := make([]int, watchesScan)
		for i := range scans {
			// One scan watch per written shape (the T-only shape cannot
			// flip), the same ones for every seed: what a write costs the
			// delta layer depends on which scans are watched, and read
			// throughput differed by 60 % between seeds that drew them.
			scans[i] = i*poolConsts + i
			in.watches = append(in.watches, in.pool[scans[i]])
		}
		s := in.base.clone()
		oracle := newScanOracle(s, in.pool)
		snapshot := func() []bool {
			v := oracle.verdicts()
			for _, k := range in.hot {
				v = append(v, pointTruth(s, k))
			}
			for _, i := range scans {
				v = append(v, v[i])
			}
			return v
		}
		in.truth = append(in.truth, snapshot())
		for i := 0; i < nWrites; i++ {
			w := nextWrite(rng, s, keys, in.hot)
			oracle.update(w.Key)
			in.writes = append(in.writes, w)
			in.truth = append(in.truth, snapshot())
		}
	case "inline_eval":
		in.inline = genInline(rng)
		in.verdicts = make([]int8, len(in.inline))
		for _, c := range in.inline {
			in.bodies = append(in.bodies, certainBody(c.Query, "", c.Facts, false), certainBody(c.Query, "", c.Facts, true))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	return in, nil
}

func (s shadow) clone() shadow {
	out := shadow{}
	for rel, blocks := range s {
		out[rel] = make(map[string][]string, len(blocks))
		for k, b := range blocks {
			out[rel][k] = append([]string(nil), b...)
		}
	}
	return out
}

// watchTruth is the verdict of watch w after i writes.
func (in *inputs) watchTruth(i, w int) bool { return in.truth[i][len(in.pool)+w] }

// stream returns the read stream: each call yields the next question's
// id and request body. The stream depends on the seed alone.
func (in *inputs) stream(explain bool) func() (int, []byte) {
	rng := rand.New(rand.NewSource(in.seed ^ 0x5eed))
	switch in.workload {
	case "mixed_rw":
		return func() (int, []byte) {
			i := rng.Intn(len(in.pool))
			return i, certainBody(in.pool[i], dbName, "", explain)
		}
	case "inline_eval":
		// Classes come in shuffled rounds of 100 that hold each class's
		// exact share: the costliest class is ten times the cheapest, so
		// a share left to chance would move the throughput by itself.
		var round []int
		for class, m := range inlineMix {
			for i := 0; i < m.share; i++ {
				round = append(round, class)
			}
		}
		n := 0
		return func() (int, []byte) {
			if n%len(round) == 0 {
				rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			}
			i := round[n%len(round)]*inlineDBs + rng.Intn(inlineDBs)
			n++
			if explain {
				return i, in.bodies[2*i+1]
			}
			return i, in.bodies[2*i]
		}
	default:
		return func() (int, []byte) {
			i := rng.Intn(in.keys)
			return i, certainBody(pointQuery(keyName(i)), dbName, "", explain)
		}
	}
}

// digest identifies the generated inputs: the loaded database, the
// first 1 024 requests of the read stream and the first 64 writes (the
// log's length follows the window's, its contents do not).
func (in *inputs) digest() string {
	parts := []string{in.facts}
	next := in.stream(false)
	for i := 0; i < 1024; i++ {
		_, body := next()
		parts = append(parts, string(body))
	}
	for _, w := range in.writes[:min(64, len(in.writes))] {
		parts = append(parts, fmt.Sprint(w))
	}
	return digest(parts...)
}

// expected is the oracle's verdict for a read, given the store version
// it was answered at and the version the database was loaded at.
func (in *inputs) expected(id int, version, loaded uint64) (bool, error) {
	if in.workload == "mixed_rw" {
		i := int(version) - int(loaded)
		if version < loaded || i >= len(in.truth) {
			return false, fmt.Errorf("answer at version %d, outside %d..%d", version, loaded, int(loaded)+len(in.truth)-1)
		}
		return in.truth[i][id], nil
	}
	if in.verdicts[id] == 0 {
		var certain bool
		if in.workload == "inline_eval" {
			var err error
			if certain, err = inlineTruth(in.inline[id]); err != nil {
				return false, err
			}
		} else {
			certain = pointTruth(in.base, keyName(id))
		}
		in.verdicts[id] = 2
		if certain {
			in.verdicts[id] = 1
		}
	}
	return in.verdicts[id] == 1, nil
}
