package parse_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/gen"
	"cqa/internal/parse"
)

// The load path's allocation counts, which repeat exactly where timings do
// not: loading a 2 000-fact text allocates per relation, row-array growth
// and arena chunk, not per fact or per token — 63 with the dictionary
// sized from the text, 94 when it doubled as values arrived, 165
// when every fact was inserted into tables that doubled as they filled,
// 16 242 when facts went through string maps — and freezing the loaded
// database allocates per relation and column, not per row.
//
// The bytes a load allocates are bounded by a multiple of the text's
// length, so that sizing ahead cannot over-allocate unnoticed: 4.0–8.4×
// over the inline databases' shapes, against 4.7–8.8× when the
// dictionary doubled from empty, and 0.9× and 0.6× on texts that are
// mostly blank lines or comments (1.0× and 0.7× from empty; 5.7× and
// 3.9× when the dictionary was sized from the line count).
func TestLoadAllocations(t *testing.T) {
	text := gen.FactsText(rand.New(rand.NewSource(1)), 2000)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := parse.Database(text); err != nil {
			t.Fatal(err)
		}
	}); n > 70 {
		t.Errorf("parse.Database of 2 000 facts: %v allocations, want at most 70", n)
	}

	type bound struct {
		text    string
		perByte float64
	}
	var bounds []bound
	for _, text := range inlineTexts(rand.New(rand.NewSource(1)), 2000) {
		bounds = append(bounds, bound{text, 9})
	}
	var blank, comments strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&blank, "R(a%d | b%d)%s", i, i, strings.Repeat("\n", 200))
		fmt.Fprintf(&comments, "R(a%d | b%d)\n%s", i, i, strings.Repeat("  # a comment\n\n", 20))
	}
	bounds = append(bounds, bound{blank.String(), 1.5}, bound{comments.String(), 1.5})
	for _, b := range bounds {
		text := b.text
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := parse.Database(text); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(text)); perByte > b.perByte {
			t.Errorf("parse.Database of %.20q…: %.2f bytes allocated per byte of text, want at most %g",
				text, perByte, b.perByte)
		}
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
