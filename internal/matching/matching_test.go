package matching_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cqa/internal/graphx"
	"cqa/internal/matching"
)

func TestHopcroftKarpSmall(t *testing.T) {
	// 0-0, 0-1, 1-0: maximum matching 2.
	size, matchL := matching.HopcroftKarp(2, 2, [][]int32{{0, 1}, {0}})
	if size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	if matchL[0] != 1 || matchL[1] != 0 {
		t.Errorf("matchL = %v", matchL)
	}
}

func TestHopcroftKarpNoEdges(t *testing.T) {
	size, _ := matching.HopcroftKarp(3, 3, [][]int32{{}, {}, {}})
	if size != 0 {
		t.Errorf("size = %d, want 0", size)
	}
}

func TestHopcroftKarpStar(t *testing.T) {
	// All left vertices only connect to right 0: matching size 1.
	size, _ := matching.HopcroftKarp(3, 3, [][]int32{{0}, {0}, {0}})
	if size != 1 {
		t.Errorf("size = %d, want 1", size)
	}
}

// bruteMax computes a maximum matching by exhaustive search.
func bruteMax(nLeft int, adj [][]int32) int {
	usedR := make(map[int32]bool)
	var rec func(i int) int
	rec = func(i int) int {
		if i == nLeft {
			return 0
		}
		best := rec(i + 1) // leave i unmatched
		for _, r := range adj[i] {
			if !usedR[r] {
				usedR[r] = true
				if got := 1 + rec(i+1); got > best {
					best = got
				}
				delete(usedR, r)
			}
		}
		return best
	}
	return rec(0)
}

// Property: Hopcroft–Karp matches brute force on random small graphs.
func TestHopcroftKarpAgainstBrute(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		adj := make([][]int32, n)
		for i := range adj {
			for j := int32(0); j < int32(m); j++ {
				if rng.Intn(3) == 0 {
					adj[i] = append(adj[i], j)
				}
			}
		}
		size, matchL := matching.HopcroftKarp(n, m, adj)
		if size != bruteMax(n, adj) {
			return false
		}
		// The returned matching must be valid and of the right size.
		cnt := 0
		usedR := make(map[int32]bool)
		for i, r := range matchL {
			if r == -1 {
				continue
			}
			cnt++
			if usedR[r] {
				return false
			}
			usedR[r] = true
			found := false
			for _, v := range adj[i] {
				if v == r {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return cnt == size
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestPerfectMatchingNamed(t *testing.T) {
	b := graphx.NewBipartite([]string{"g1", "g2"}, []string{"b1", "b2"})
	b.AddEdge("g1", "b1")
	b.AddEdge("g1", "b2")
	b.AddEdge("g2", "b1")
	if !matching.HasPerfectMatching(b) {
		t.Error("perfect matching exists (g1-b2, g2-b1)")
	}
	b2 := graphx.NewBipartite([]string{"g1", "g2"}, []string{"b1", "b2"})
	b2.AddEdge("g1", "b1")
	b2.AddEdge("g2", "b1")
	if matching.HasPerfectMatching(b2) {
		t.Error("both girls know only b1: no perfect matching")
	}
	// Unequal sides never have a perfect matching.
	b3 := graphx.NewBipartite([]string{"g1"}, []string{"b1", "b2"})
	b3.AddEdge("g1", "b1")
	if matching.HasPerfectMatching(b3) {
		t.Error("unequal sides cannot be perfectly matched")
	}
}

// Example 1.1 / Figure 1: the mutual-knowledge graph on girls
// {Alice, Maria} and boys {Bob, George} (restricted to pairs who know each
// other both ways) has a perfect matching Alice–George, Maria–Bob.
func TestFigure1Matching(t *testing.T) {
	b := graphx.NewBipartite([]string{"Alice", "Maria"}, []string{"Bob", "George"})
	// R ∩ S⁻¹: Alice-Bob, Alice-George, Maria-Bob.
	b.AddEdge("Alice", "Bob")
	b.AddEdge("Alice", "George")
	b.AddEdge("Maria", "Bob")
	if !matching.HasPerfectMatching(b) {
		t.Error("Figure 1 graph should have a perfect matching")
	}
	m := matching.MaxMatching(b)
	if len(m) != 2 {
		t.Errorf("matching = %v", m)
	}
}

func TestHallCondition(t *testing.T) {
	b := graphx.NewBipartite([]string{"l1", "l2", "l3"}, []string{"r1", "r2", "r3"})
	b.AddEdge("l1", "r1")
	b.AddEdge("l2", "r1")
	b.AddEdge("l3", "r2")
	// {l1, l2} has only one neighbour r1 → Hall fails.
	if matching.HallCondition(b) {
		t.Error("Hall condition should fail")
	}
	b.AddEdge("l2", "r3")
	if !matching.HallCondition(b) {
		t.Error("Hall condition should now hold")
	}
}

func TestSCoveringSolvable(t *testing.T) {
	inst := matching.SCoveringInstance{
		S: []string{"a", "b"},
		T: [][]string{{"a", "b"}, {"b"}},
	}
	if !inst.Solvable() {
		t.Error("pick a from T1, b from T2")
	}
	inst2 := matching.SCoveringInstance{
		S: []string{"a", "b"},
		T: [][]string{{"a", "b"}},
	}
	if inst2.Solvable() {
		t.Error("one set cannot cover two elements")
	}
	inst3 := matching.SCoveringInstance{S: nil, T: [][]string{{"a"}}}
	if !inst3.Solvable() {
		t.Error("empty S is trivially coverable")
	}
	// Membership of elements outside S is ignored.
	inst4 := matching.SCoveringInstance{
		S: []string{"a"},
		T: [][]string{{"zz", "a", "a"}}, // duplicate membership too
	}
	if !inst4.Solvable() {
		t.Error("stray memberships should not break covering")
	}
}

// S-COVERING via matching equals a brute-force assignment search.
func TestSCoveringAgainstBrute(t *testing.T) {
	brute := func(inst matching.SCoveringInstance) bool {
		usedT := make([]bool, len(inst.T))
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(inst.S) {
				return true
			}
			for j, tset := range inst.T {
				if usedT[j] {
					continue
				}
				for _, a := range tset {
					if a == inst.S[i] {
						usedT[j] = true
						if rec(i + 1) {
							return true
						}
						usedT[j] = false
						break
					}
				}
			}
			return false
		}
		return rec(0)
	}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		els := []string{"a", "b", "c", "d"}
		nS := rng.Intn(4)
		nT := rng.Intn(4)
		inst := matching.SCoveringInstance{S: els[:nS], T: make([][]string, nT)}
		for i := range inst.T {
			for _, e := range els[:nS] {
				if rng.Intn(2) == 0 {
					inst.T[i] = append(inst.T[i], e)
				}
			}
		}
		return inst.Solvable() == brute(inst)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
