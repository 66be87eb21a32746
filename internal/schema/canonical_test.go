package schema_test

import (
	"math/rand"
	"testing"

	"cqa/internal/parse"
	"cqa/internal/schema"
)

func sig(t *testing.T, src string) string {
	t.Helper()
	q, err := parse.Query(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.Signature()
}

// Alpha-equivalent queries — renamed variables, reordered literals — must
// share a signature; structurally different queries must not.
func TestSignatureEquivalence(t *testing.T) {
	same := [][2]string{
		{"R(x | y), !S(y | x)", "R(a | b), !S(b | a)"},
		{"R(x | y), !S(y | x)", "!S(b | a), R(a | b)"},
		{"R(x | y, 'c')", "R(u | w, 'c')"},
		{"P(x | y), Q(y | z)", "Q(b | c), P(a | b)"},
	}
	for _, pair := range same {
		if sig(t, pair[0]) != sig(t, pair[1]) {
			t.Errorf("signatures differ for alpha-equivalent %q and %q", pair[0], pair[1])
		}
	}
	distinct := [][2]string{
		{"R(x | y)", "R(x, y)"},                       // different key
		{"R(x | y)", "R(x | x)"},                      // variable pattern
		{"R(x | y), !S(y | x)", "R(x | y), S(y | x)"}, // polarity
		{"R(x | 'c')", "R(x | 'd')"},                  // constants verbatim
		{"R(x | y)", "T(x | y)"},                      // relation name
		{"R(x | y), S(x | y)", "R(x | y), S(y | x)"},  // join pattern
	}
	for _, pair := range distinct {
		if sig(t, pair[0]) == sig(t, pair[1]) {
			t.Errorf("signatures collide for distinct %q and %q", pair[0], pair[1])
		}
	}
}

// A signature is stable across parse → print → parse round trips and
// across random literal shuffles with fresh variable names.
func TestSignatureStableUnderRenamingAndShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	queries := []string{
		"R(x | y), !S(y | x)",
		"Lives(p | t), !Born(p | t), !Likes(p, t)",
		"P0(x, y | z), P1(z | x), !N0(x | y), !N1(z | z)",
	}
	fresh := []string{"m", "n", "o", "p", "q", "r"}
	for _, src := range queries {
		q := parse.MustQuery(src)
		want := q.Signature()
		for trial := 0; trial < 20; trial++ {
			// Rename variables with a random bijection.
			vars := q.Vars().Sorted()
			perm := rng.Perm(len(fresh))
			sub := make(map[string]schema.Term, len(vars))
			for i, v := range vars {
				sub[v] = schema.Var(fresh[perm[i]])
			}
			renamed := q.Substitute(sub)
			// Shuffle the literals.
			lits := append([]schema.Literal(nil), renamed.Lits...)
			rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
			shuffled := schema.NewQuery(lits...)
			if got := shuffled.Signature(); got != want {
				t.Fatalf("%s: signature changed under renaming+shuffle (trial %d)", src, trial)
			}
		}
	}
}
