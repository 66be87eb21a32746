package store_test

import (
	"bytes"
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

// fuzzPrimary builds a small deterministic primary for stream fuzzing.
func fuzzPrimary() *store.Store {
	p := store.NewMem("d", nil)
	p.Declare("R", 2, 1)
	p.Insert(db.F("R", "a", "1"), db.F("R", "a", "2"))
	p.Insert(db.F("R", "b", "1"))
	p.Delete(db.F("R", "a", "2"))
	return p
}

// FuzzWALStream feeds arbitrary bytes to the follower's stream decoder.
// Whatever arrives — torn frames, duplicated records, bit flips, hostile
// headers — ApplyStream must not panic, must keep the replica's version
// monotone, and must leave a state from which a genuine reconnect (the
// stream a primary serves for the replica's post-garbage version)
// converges to the primary exactly.
func FuzzWALStream(f *testing.F) {
	p := fuzzPrimary()
	var full bytes.Buffer
	if err := p.ServeStream(&full, store.StreamOptions{From: 0}); err != nil {
		f.Fatal(err)
	}
	stream := full.Bytes()
	f.Add(stream)
	f.Add(stream[:len(stream)-3])                         // torn final frame
	f.Add(append(append([]byte{}, stream...), stream...)) // duplicated records
	if i := bytes.IndexByte(stream, '\n'); i > 0 {
		f.Add(stream[:i+9]) // torn first frame
		flip := append([]byte(nil), stream...)
		flip[i+10] ^= 0x20 // corrupt a payload byte under the CRC
		f.Add(flip)
	}
	var snapStream bytes.Buffer
	// A from beyond the primary's version forces a snapshot bootstrap.
	if err := p.ServeStream(&snapStream, store.StreamOptions{From: 99}); err != nil {
		f.Fatal(err)
	}
	f.Add(snapStream.Bytes())
	f.Add([]byte(`{"mode":"snapshot","version":3,"records":1000000}` + "\n"))
	f.Add([]byte(`{"mode":"weird"}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := store.NewReplica("d")
		before := r.Version()
		_ = r.ApplyStream(bytes.NewReader(data)) // may error; must not panic
		mid := r.Version()
		_, _, resets := r.Stats()
		if mid < before && resets == 0 {
			t.Fatalf("version moved backwards without a reset: %d → %d", before, mid)
		}
		// Whatever state the garbage left — including CRC-valid forged
		// records a coverage-guided fuzzer can construct — a snapshot
		// bootstrap must heal the replica. (A claimed version far ahead
		// forces the bootstrap path; tail-resume correctness for honest
		// prefixes is covered by the deterministic stream tests.)
		p := fuzzPrimary()
		var again bytes.Buffer
		if err := p.ServeStream(&again, store.StreamOptions{From: ^uint64(0)}); err != nil {
			t.Fatalf("ServeStream(bootstrap): %v", err)
		}
		if err := r.ApplyStream(bytes.NewReader(again.Bytes())); err != nil {
			t.Fatalf("genuine bootstrap failed: %v", err)
		}
		ps, rs := p.Snapshot(), r.Store().Snapshot()
		if ps.Version != rs.Version || ps.DB.String() != rs.DB.String() {
			t.Fatalf("reconnect did not converge: v%d vs v%d\n%s\nvs\n%s",
				ps.Version, rs.Version, ps.DB.String(), rs.DB.String())
		}
	})
}
