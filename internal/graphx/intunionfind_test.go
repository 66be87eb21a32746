package graphx

import (
	"math/rand"
	"testing"
)

func TestIntUnionFindBasics(t *testing.T) {
	u := NewIntUnionFind(5)
	if u.Len() != 5 {
		t.Fatalf("Len = %d", u.Len())
	}
	for i := int32(0); i < 5; i++ {
		if u.Find(i) != i || u.Size(i) != 1 {
			t.Fatalf("singleton %d: find=%d size=%d", i, u.Find(i), u.Size(i))
		}
	}
	r := u.Union(0, 1)
	if u.Find(0) != r || u.Find(1) != r || u.Size(0) != 2 {
		t.Fatalf("after union(0,1): find0=%d find1=%d size=%d", u.Find(0), u.Find(1), u.Size(0))
	}
	// Union of already-joined elements returns the common root unchanged.
	if got := u.Union(1, 0); got != r {
		t.Fatalf("redundant union root = %d, want %d", got, r)
	}
	if u.Size(0) != 2 {
		t.Fatalf("redundant union changed size to %d", u.Size(0))
	}
	r2 := u.Union(2, 3)
	r3 := u.Union(0, 2)
	if r3 != r && r3 != r2 {
		t.Fatalf("merge root %d is neither prior root (%d, %d)", r3, r, r2)
	}
	if u.Size(3) != 4 || u.Find(4) == u.Find(0) {
		t.Fatalf("component sizes wrong: size=%d", u.Size(3))
	}
}

// TestIntUnionFindAgainstStringUnionFind drives both implementations
// with the same random union sequence and compares the induced
// partition via pairwise connectivity.
func TestIntUnionFindAgainstStringUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	iu := NewIntUnionFind(n)
	su := NewUnionFind()
	for i := 0; i < 200; i++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		iu.Union(a, b)
		su.Union(names[a], names[b])
	}
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			got := iu.Find(a) == iu.Find(b)
			want := su.Find(names[a]) == su.Find(names[b])
			if got != want {
				t.Fatalf("connectivity(%d,%d) = %v, string oracle %v", a, b, got, want)
			}
		}
	}
}
