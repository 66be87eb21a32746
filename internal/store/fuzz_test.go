package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"cqa/internal/db"
	"cqa/internal/store"
)

// FuzzWALReplay feeds arbitrary bytes to the WAL decoder via store
// recovery: whatever the log contains, Open must not panic, must
// recover only CRC-intact records (no phantom facts beyond what a valid
// prefix encodes), and must leave a log that a second open replays to
// the same state.
func FuzzWALReplay(f *testing.F) {
	// Seed with a genuine log and mutations of it.
	dir := f.TempDir()
	st, err := store.Open("seed", store.Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	st.Declare("R", 2, 1)
	st.Insert(db.F("R", "a", "1"), db.F("R", "b", "2"))
	st.Delete(db.F("R", "b", "2"))
	seed, err := os.ReadFile(filepath.Join(dir, "seed.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	flipped := append([]byte(nil), seed...)
	flipped[9] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, "z.wal"), data, 0o644); err != nil {
			t.Skip()
		}
		st, err := store.Open("z", store.Options{Dir: fdir})
		if err != nil {
			// Semantically invalid but CRC-valid records (e.g. an insert
			// into an undeclared relation) legitimately fail recovery;
			// what matters is no panic and no partial store.
			return
		}
		first := st.Snapshot()
		// The repaired log must replay to the same state.
		st2, err := store.Open("z", store.Options{Dir: fdir})
		if err != nil {
			t.Fatalf("second open of repaired log failed: %v", err)
		}
		second := st2.Snapshot()
		st.Close()
		st2.Close()
		if first.Version != second.Version || first.DB.String() != second.DB.String() {
			t.Fatalf("repaired log diverged: v%d vs v%d\n%s\nvs\n%s",
				first.Version, second.Version, first.DB.String(), second.DB.String())
		}
	})
}
