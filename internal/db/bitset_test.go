package db

import (
	"fmt"
	"slices"
	"testing"
)

// blocksOfTwo returns R(k | v) over n blocks, block i holding v_{i+1}
// and then v_0: the non-key hole has one group per block, whose rows
// come in descending id order, and the key hole one per value. Ids
// above the dense floor give sparse sets beside dense ones.
func blocksOfTwo(n int) *InternedRelation {
	d := New()
	d.MustDeclare("R", 2, 1)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		d.MustInsert(F("R", k, fmt.Sprintf("v%d", i+1)))
		d.MustInsert(F("R", k, "v0"))
	}
	return d.Interned().Relation("R")
}

// The build of a hole index allocates a constant number of times,
// whatever the number of groups, and each group's set holds its rows'
// hole values in the form NewIDSet gives them.
func TestHoleIndexAllocations(t *testing.T) {
	for _, blocks := range []int{700, 20000} {
		ir := blocksOfTwo(blocks)
		for hole := 0; hole < 2; hole++ {
			allocs := testing.AllocsPerRun(2, func() { ir.buildHoleIndex(hole) })
			t.Logf("blocks=%d hole=%d: %.0f allocations", blocks, hole, allocs)
			if allocs > 32 {
				t.Errorf("blocks=%d hole=%d: the build allocates %.0f times, want ≤ 32", blocks, hole, allocs)
			}

			forms := map[bool]int{}
			want := map[int32][]int32{}
			for i := 0; i < ir.Rows(); i++ {
				row := ir.Row(i)
				want[row[1-hole]] = append(want[row[1-hole]], row[hole])
			}
			for rest, ids := range want {
				slices.Sort(ids)
				ids = slices.Compact(ids)
				set := ir.HoleSet(hole, []int32{rest})
				if set == nil || !slices.Equal(idSetMembers(set), ids) || set.Card() != len(ids) {
					t.Fatalf("blocks=%d hole=%d: HoleSet(%d) = %v, want %v", blocks, hole, rest, set, ids)
				}
				if set.Dense() != NewIDSet(ids).Dense() {
					t.Fatalf("blocks=%d hole=%d: HoleSet(%d) dense %v, NewIDSet %v", blocks, hole, rest, set.Dense(), !set.Dense())
				}
				forms[set.Dense()]++
			}
			if blocks > 700 && (forms[true] == 0 || forms[false] == 0) {
				t.Fatalf("blocks=%d hole=%d: %d dense and %d sparse sets, want both forms", blocks, hole, forms[true], forms[false])
			}
			if set := ir.HoleSet(hole, []int32{-1}); set != nil {
				t.Fatalf("blocks=%d hole=%d: HoleSet of an absent rest = %v", blocks, hole, set)
			}
		}
	}
}
