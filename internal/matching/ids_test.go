package matching

import "testing"

func TestHopcroftKarpIDsEmpty(t *testing.T) {
	if got, _ := HopcroftKarp(0, 0, nil); got != 0 {
		t.Fatalf("empty graph matching = %d", got)
	}
	if got, matchL := HopcroftKarp(3, 2, make([][]int32, 3)); got != 0 || len(matchL) != 3 {
		t.Fatalf("edgeless graph matching = %d, matchL %v", got, matchL)
	}
}
