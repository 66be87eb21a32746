// Command certbench runs the full experiment suite E1–E11 described in
// DESIGN.md and prints the tables recorded in EXPERIMENTS.md. Every
// experiment is deterministic (fixed seeds) and validates itself: a
// failed cross-check aborts with a non-zero exit code.
//
// Usage:
//
//	certbench [-run E1,E3] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
)

var experiments = []struct {
	id   string
	desc string
	run  func(quick bool) error
}{
	{"E1", "Figure 1 / Example 1.1: girls-boys database and the matching repair", runE1},
	{"E2", "classification of every example query in the paper", runE2},
	{"E3", "q_Hall: Figure 2 rewriting, Hall equivalence, rewriting growth", runE3},
	{"E4", "Lemma 5.2: BPM reduction agreement and engine timings", runE4},
	{"E5", "Lemma 5.3: UFA reduction agreement", runE5},
	{"E6", "Example 7.1: q4 decision procedure vs repair enumeration", runE6},
	{"E7", "scaling: rewriting and Algorithm 1 vs naive enumeration", runE7},
	{"E8", "random-query sweep: dichotomy statistics and engine agreement", runE8},
	{"E9", "attack-graph cost vs query size; Θ-reduction preservation", runE9},
	{"E10", "extensions: SQL end-to-end, free variables, reifiability, ♯CERTAINTY", runE10},
	{"E11", "P vs FO: matching-based PTIME deciders for q1 and q_Hall", runE11},
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main with its exit status exposed for tests: 0 when every
// selected experiment passed, 1 when one failed its cross-checks, 2 on a
// usage error (bad flag, or a -run id that names no experiment), which
// is reported on stderr.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("certbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlag := fs.String("run", "", "comma-separated experiment ids (default: all)")
	quick := fs.Bool("quick", false, "smaller instances for a fast smoke run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	want := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(ids, id) {
				fmt.Fprintf(stderr, "certbench: unknown experiment %q; valid ids: %s\n", id, strings.Join(ids, ", "))
				return 2
			}
			want[id] = true
		}
	}
	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
		if err := e.run(*quick); err != nil {
			log.Printf("%s FAILED: %v", e.id, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		return 1
	}
	return 0
}
