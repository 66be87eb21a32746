package main

import (
	"fmt"
	"math/rand"
	"time"

	"cqa/internal/db"
	"cqa/internal/fo"
	"cqa/internal/gen"
	"cqa/internal/naive"
	"cqa/internal/reduction"
	"cqa/internal/rewrite"
	"cqa/internal/special"
)

// runE11 exhibits the gap between FO and P inside the not-in-FO side of
// the dichotomy: CERTAINTY(q1) has no consistent first-order rewriting
// (Lemma 5.2), yet it is decidable in polynomial time by bipartite
// matching over the mutual graph; naive enumeration is exponential.
// Likewise CERTAINTY(q_Hall) has a rewriting, but one of exponential
// size; the matching decider and the rewriting agree while scaling very
// differently in ℓ.
func runE11(quick bool) error {
	q1 := reduction.Q1()
	rng := rand.New(rand.NewSource(11))

	// Agreement + scaling for q1.
	sizes := []int{3, 4, 5, 6}
	trialsPer := 30
	if quick {
		sizes = []int{3, 4}
		trialsPer = 10
	}
	fmt.Println("CERTAINTY(q1) — matching decider vs repair enumeration:")
	fmt.Println("  n   trials  agree  matching      naive")
	for _, n := range sizes {
		agree := 0
		var tM, tN time.Duration
		for i := 0; i < trialsPer; i++ {
			d := randomQ1DB(rng, n)
			t0 := time.Now()
			got := special.Q1Certain(d)
			tM += time.Since(t0)
			t0 = time.Now()
			want := naive.IsCertain(q1, d)
			tN += time.Since(t0)
			if got == want {
				agree++
			}
		}
		fmt.Printf("  %d   %-6d  %d/%d  %-12s  %s\n",
			n, trialsPer, agree, trialsPer,
			tM/time.Duration(trialsPer), tN/time.Duration(trialsPer))
		if agree != trialsPer {
			return fmt.Errorf("n=%d: matching decider diverged", n)
		}
	}
	// Larger scale, matching decider only (enumeration is hopeless).
	big := randomQ1DB(rng, 200)
	t0 := time.Now()
	ans := special.Q1Certain(big)
	fmt.Printf("  n=200 (%.3g repairs): matching decider answers %v in %s\n",
		big.NumRepairs(), ans, time.Since(t0))

	// q_Hall: matching decider vs the (exponential-size) rewriting.
	fmt.Println("CERTAINTY(q_Hall) — matching decider vs FO rewriting evaluation:")
	fmt.Println("  ℓ   rewriting-size  agree  matching      rewriting-eval")
	maxL := 5
	trials := 40
	if quick {
		maxL = 3
		trials = 10
	}
	for l := 1; l <= maxL; l++ {
		q := reduction.QHall(l)
		f, err := rewrite.Rewrite(q)
		if err != nil {
			return err
		}
		prog, err := fo.Compile(f, nil)
		if err != nil {
			return err
		}
		agree := 0
		var tM, tR time.Duration
		for i := 0; i < trials; i++ {
			inst := gen.SCovering(rng, 1+rng.Intn(5), l, 0.4)
			d := reduction.SCoveringToQHall(inst)
			t0 := time.Now()
			got, err := special.QHallCertain(d, l)
			if err != nil {
				return err
			}
			tM += time.Since(t0)
			ix := d.Interned()
			t0 = time.Now()
			want := prog.Bind(ix).Eval()
			tR += time.Since(t0)
			if got == want {
				agree++
			}
		}
		fmt.Printf("  %d   %-14d  %d/%d  %-12s  %s\n",
			l, fo.Size(f), agree, trials,
			tM/time.Duration(trials), tR/time.Duration(trials))
		if agree != trials {
			return fmt.Errorf("ℓ=%d: q_Hall deciders diverged", l)
		}
	}
	return nil
}

func randomQ1DB(rng *rand.Rand, n int) *db.Database {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("a%d", i)
		for j := 0; j < 2; j++ {
			b := fmt.Sprintf("b%d", rng.Intn(n))
			d.MustInsert(db.F("R", a, b))
			if rng.Intn(2) == 0 {
				d.MustInsert(db.F("S", b, a))
			}
		}
	}
	return d
}
