package parse_test

import (
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/parse"
)

// The load path's allocation counts, which repeat exactly where timings do
// not: loading a 2 000-fact text allocates per buffer growth and arena
// chunk, not per fact or per token — 94 with the bulk loader, 165 when
// every fact was inserted into tables that doubled as they filled, 16 242
// when facts went through string maps — and freezing the loaded database
// allocates per relation and column, not per row.
func TestLoadAllocations(t *testing.T) {
	text := gen.FactsText(rand.New(rand.NewSource(1)), 2000)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := parse.Database(text); err != nil {
			t.Fatal(err)
		}
	}); n > 100 {
		t.Errorf("parse.Database of 2 000 facts: %v allocations, want at most 100", n)
	}

	const runs = 10
	loaded := make([]*db.Database, runs+1) // AllocsPerRun warms up with one extra call
	for i := range loaded {
		loaded[i] = parse.MustDatabase(text)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		loaded[next].Interned()
		next++
	}); n > 60 {
		t.Errorf("Interned of the loaded database: %v allocations, want at most 60", n)
	}
}
