package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Everything a workload sends is generated here from the seed alone: the
// same seed gives the same databases, the same request streams and the
// same write log, and digest() of a workload's inputs is printed in the
// stamp so two runs can be shown to have asked the same questions.

const (
	domainSize  = 16 // non-key values v00..v15
	poolConsts  = 16 // constants per mixed_rw shape: 12 in the domain, 4 outside it
	inlineDBs   = 8  // databases per inline_eval query shape
	inlineFacts = 2000
	hotShare    = 0.5 // share of mixed_rw writes aimed at the watched keys
)

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }
func valName(i int) string { return fmt.Sprintf("v%02d", i) }

// shadow is the client-side copy of the served database: per relation,
// per key, the sorted non-key values of that block. All three relations
// have signature [2,1].
type shadow map[string]map[string][]string

func (s shadow) block(rel, key string) []string { return s[rel][key] }

func (s shadow) has(rel, key, val string) bool {
	b := s[rel][key]
	i := sort.SearchStrings(b, val)
	return i < len(b) && b[i] == val
}

func (s shadow) insert(rel, key, val string) {
	b := s[rel][key]
	i := sort.SearchStrings(b, val)
	b = append(b, "")
	copy(b[i+1:], b[i:])
	b[i] = val
	s[rel][key] = b
}

func (s shadow) remove(rel, key, val string) {
	b := s[rel][key]
	i := sort.SearchStrings(b, val)
	b = append(b[:i:i], b[i+1:]...)
	if len(b) == 0 {
		delete(s[rel], key)
		return
	}
	s[rel][key] = b
}

// facts renders the shadow in the cqa database syntax, relations and
// keys in sorted order.
func (s shadow) facts() string {
	var sb strings.Builder
	for _, rel := range []string{"R", "S", "T"} {
		keys := make([]string, 0, len(s[rel]))
		for k := range s[rel] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, v := range s[rel][k] {
				fmt.Fprintf(&sb, "%s(%s | %s)\n", rel, k, v)
			}
		}
	}
	return sb.String()
}

// genStore builds the served database of the three store workloads: R
// over every key, S over every second key, T over the first keys/20
// keys, values from the 16-symbol domain, and one block in five
// inconsistent (2 or 3 facts). Six S-blocks in ten repeat a value of the
// key's R-block, which is what makes the point query uncertain, so that
// both of its verdicts are common (about 70 % certain).
func genStore(rng *rand.Rand, keys int) shadow {
	s := shadow{"R": {}, "S": {}, "T": {}}
	fill := func(rel, key string, first string) {
		n := 1
		if rng.Intn(5) == 0 {
			n = 2 + rng.Intn(2)
		}
		if first != "" {
			s.insert(rel, key, first)
			n--
		}
		for _, v := range rng.Perm(domainSize) {
			if n > 0 && !s.has(rel, key, valName(v)) {
				s.insert(rel, key, valName(v))
				n--
			}
		}
	}
	for i := 0; i < keys; i++ {
		k := keyName(i)
		fill("R", k, "")
		if i%2 == 0 {
			shared := ""
			if r := s.block("R", k); rng.Intn(10) < 6 {
				shared = r[rng.Intn(len(r))]
			}
			fill("S", k, shared)
		}
		if i < keys/20 {
			fill("T", k, "")
		}
	}
	return s
}

func pointQuery(key string) string {
	return fmt.Sprintf("R('%s' | x), !S('%s' | x)", key, key)
}

// poolShapes are the six non-ground FO shapes of mixed_rw; %[1]s is a
// constant in a non-key position. Every atom is keyed by x, which is
// what lets the oracle decide them block by block (oracle.go). The
// fifth mentions only T, which the writer never touches.
var poolShapes = []string{
	"R(x | '%[1]s')",
	"R(x | y), !S(x | '%[1]s')",
	"R(x | '%[1]s'), !S(x | '%[1]s')",
	"R(x | y), S(x | '%[1]s')",
	"T(x | '%[1]s')",
	"R(x | y), !S(x | y), T(x | '%[1]s')",
}

// genPool returns the 96 mixed_rw signatures: 6 shapes × 16 constants,
// the last four constants outside the data domain so that some scans
// find nothing.
func genPool() []string {
	pool := make([]string, 0, len(poolShapes)*poolConsts)
	for _, shape := range poolShapes {
		for c := 0; c < poolConsts; c++ {
			pool = append(pool, fmt.Sprintf(shape, valName(c+domainSize-12)))
		}
	}
	return pool
}

// write is one effective single-fact mutation.
type write struct {
	Del           bool
	Rel, Key, Val string
}

func (w write) fact() string { return fmt.Sprintf("%s(%s | %s)\n", w.Rel, w.Key, w.Val) }

// nextWrite draws a mutation that is effective on s — an insert of an
// absent fact or a delete of a present one — and applies it to s. Half
// of the writes go to the hot keys (the watched ones), so that watch
// streams see flips.
func nextWrite(rng *rand.Rand, s shadow, keys int, hot []string) write {
	w := write{Rel: "R", Key: keyName(rng.Intn(keys))}
	if rng.Intn(2) == 0 {
		w.Rel = "S"
	}
	if len(hot) > 0 && rng.Float64() < hotShare {
		w.Key = hot[rng.Intn(len(hot))]
	}
	b := s.block(w.Rel, w.Key)
	switch {
	case len(b) == 0:
	case len(b) >= 3:
		w.Del = true
	default:
		w.Del = rng.Intn(2) == 0
	}
	if w.Del {
		w.Val = b[rng.Intn(len(b))]
		s.remove(w.Rel, w.Key, w.Val)
		return w
	}
	for {
		w.Val = valName(rng.Intn(domainSize))
		if !s.has(w.Rel, w.Key, w.Val) {
			s.insert(w.Rel, w.Key, w.Val)
			return w
		}
	}
}

// inlineCase is one (query, database) pair of inline_eval.
type inlineCase struct {
	Class string `json:"class"` // fo, hall, matching, reachability, hard
	Query string `json:"query"`
	Facts string `json:"facts"`
}

// inlineMix is the request share of each class, in percent. FO shapes
// keep 60 % so that the median sits inside one mode.
var inlineMix = []struct {
	class string
	share int
}{{"fo", 40}, {"hall", 20}, {"matching", 15}, {"reachability", 15}, {"hard", 10}}

var inlineQueries = map[string]string{
	"fo":           "Lives(p | t), !Born(p | t), !Likes(p, t)",
	"hall":         "S(x), !N1('c' | x), !N2('c' | x), !N3('c' | x)",
	"matching":     "P(u | v), !N(v | u)",
	"reachability": "E(x, y), !B(x | y), !C(y | x)",
	"hard":         "P(u | v), !N(v | u), !M(u | v)",
}

// genInline builds the 5 × 8 inline databases of about 2 000 facts.
// Each is a consistent bulk on which the query fails row by row, plus a
// handful of inconsistent blocks that decide the verdict: the oracle is
// repair enumeration, which is exponential in the number of
// non-singleton blocks, so those stay at 6 or fewer. Every second
// database gets a row on which the query holds in every repair.
func genInline(rng *rand.Rand) []inlineCase {
	var out []inlineCase
	for _, m := range inlineMix {
		for i := 0; i < inlineDBs; i++ {
			var sb strings.Builder
			genInlineFacts(&sb, rng, m.class, i%2 == 0)
			out = append(out, inlineCase{Class: m.class, Query: inlineQueries[m.class], Facts: sb.String()})
		}
	}
	return out
}

func genInlineFacts(sb *strings.Builder, rng *rand.Rand, class string, witness bool) {
	pick := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
	switch class {
	case "fo":
		// Bulk people were born where they live; the special ones live
		// in two towns at once.
		for i := 0; i < inlineFacts/3; i++ {
			t := pick("t", 50)
			fmt.Fprintf(sb, "Lives(p%d | %s)\nBorn(p%d | %s)\nLikes(p%d, %s)\n", i, t, i, t, i, pick("t", 50))
		}
		for i := 0; i < 4; i++ {
			t1, t2 := pick("s", 4), pick("u", 4)
			fmt.Fprintf(sb, "Lives(q%d | %s)\nLives(q%d | %s)\nBorn(q%d | %s)\n", i, t1, i, t2, i, t1)
		}
		if witness {
			fmt.Fprintf(sb, "Lives(w | s0)\nLives(w | s1)\nBorn(w | t0)\n")
		}
	case "hall":
		// Three inconsistent blocks N1..N3 keyed 'c', each choosing one
		// of three candidates to exclude from a small S; the bulk sits
		// under other keys.
		n := 3
		if witness {
			n = 4
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(sb, "S(a%d)\n", i)
		}
		for j := 1; j <= 3; j++ {
			for _, v := range rng.Perm(4)[:3] {
				fmt.Fprintf(sb, "N%d(c | a%d)\n", j, v)
			}
			for i := 0; i < inlineFacts/3; i++ {
				fmt.Fprintf(sb, "N%d(d%d | a%d)\n", j, i, rng.Intn(4))
			}
		}
	case "matching", "hard":
		// Bulk rows are mutual (P(u|v) with N(v|u)), so each is
		// falsified on its own. Three special P-blocks can each choose
		// the shared y0, whose N-block admits one of them, or their own
		// z, which falsifies them only while N(z|x) is there. The shape
		// is fixed — 24 repairs — so that what the server's enumeration
		// costs on the hard class does not depend on the seed.
		rels := 2
		if class == "hard" {
			rels = 3
		}
		for i := 0; i < inlineFacts/rels; i++ {
			fmt.Fprintf(sb, "P(u%d | v%d)\nN(v%d | u%d)\n", i, i, i, i)
			if class == "hard" {
				fmt.Fprintf(sb, "M(u%d | w%d)\n", i, i)
			}
		}
		for j := 0; j < 3; j++ {
			fmt.Fprintf(sb, "P(x%d | y0)\nP(x%d | z%d)\nN(y0 | x%d)\n", j, j, j, j)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(sb, "N(z%d | x%d)\n", j, j)
			}
		}
		if witness {
			fmt.Fprintf(sb, "P(lone | nobody)\n")
		}
	case "reachability":
		// Bulk edges are covered by their own B-fact; the special edges
		// form a small graph whose B- and C-blocks must orient it.
		for i := 0; i < inlineFacts/2; i++ {
			fmt.Fprintf(sb, "E(a%d, b%d)\nB(a%d | b%d)\n", i, i, i, i)
		}
		for i := 0; i < 4; i++ {
			x, y := rng.Intn(3), rng.Intn(3)
			fmt.Fprintf(sb, "E(g%d, h%d)\nB(g%d | h%d)\nC(h%d | g%d)\n", x, y, x, y, y, x)
		}
		if witness {
			fmt.Fprintf(sb, "E(lone, nobody)\n")
		}
	}
}

// certainBody renders a /v1/certain request.
func certainBody(query, database, facts string, explain bool) []byte {
	b, _ := json.Marshal(struct {
		Query    string `json:"query"`
		Database string `json:"database,omitempty"`
		Facts    string `json:"facts,omitempty"`
		Explain  bool   `json:"explain,omitempty"`
	}{query, database, facts, explain})
	return b
}

// digest hashes a workload's generated inputs.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
