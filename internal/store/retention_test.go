package store_test

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cqa/internal/db"
	"cqa/internal/store"
)

func walSize(t *testing.T, dir, name string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRetentionHoldsForFollower exercises the reclaim path: a
// registered follower pins WAL records past a checkpoint; acking to the
// head releases them.
func TestRetentionHoldsForFollower(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open("d", store.Options{Dir: dir, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Declare("R", 2, 1)
	st.Insert(db.F("R", "a", "1"))
	pin := st.Version()
	st.RegisterFollower("f", pin)

	for i := 0; i < 30; i++ {
		st.Insert(db.F("R", "k", string(rune('a'+i))))
	}
	stats := st.Stats()
	if stats.Checkpoints == 0 {
		t.Fatalf("no checkpoint happened: %+v", stats)
	}
	if stats.TailFloor != pin {
		t.Fatalf("tail floor %d, want follower pin %d", stats.TailFloor, pin)
	}
	// The WAL still holds every record after the pin, even though the
	// checkpoint covers them.
	if batches, ok := st.TailSince(pin); !ok || len(batches) != 30 {
		t.Fatalf("TailSince(pin) = %d batches, ok=%v; want 30", len(batches), ok)
	}
	retained := walSize(t, dir, "d")

	// A restart must preserve the follower's window: the retained
	// records come back from disk.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open("d", store.Options{Dir: dir, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if batches, ok := st.TailSince(pin); !ok || len(batches) != 30 {
		t.Fatalf("after restart: TailSince(pin) = %d batches, ok=%v; want 30", len(batches), ok)
	}
	st.RegisterFollower("f", pin)

	// Acking to the head releases the hold at the next checkpoint.
	st.RegisterFollower("f", st.Version())
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stats = st.Stats()
	if stats.TailFloor != stats.Version {
		t.Fatalf("tail floor %d after full ack, want %d", stats.TailFloor, stats.Version)
	}
	if stats.SegmentRecords != 0 {
		t.Fatalf("WAL retains %d records after full ack", stats.SegmentRecords)
	}
	if sz := walSize(t, dir, "d"); sz >= retained {
		t.Fatalf("WAL did not shrink: %d → %d bytes", retained, sz)
	}
	if _, ok := st.TailSince(pin); ok {
		t.Fatal("reclaimed records still claimed streamable")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionEvictsLaggard: a follower lagging beyond
// DefaultMaxFollowerLag loses its hold; its next stream request gets a
// snapshot bootstrap.
func TestRetentionEvictsLaggard(t *testing.T) {
	dir := t.TempDir()
	// Each checkpoint fsyncs; a wide interval keeps the test fast.
	const every = 1024
	st, err := store.Open("d", store.Options{Dir: dir, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Declare("R", 2, 1)
	st.RegisterFollower("slow", st.Version())
	// Past the lag cap, the next checkpoint evicts the laggard.
	const writes = store.DefaultMaxFollowerLag + every + 8
	for i := 0; i < writes; i++ {
		st.Insert(db.F("R", "k", strconv.Itoa(i)))
	}
	stats := st.Stats()
	if stats.Followers != 0 {
		t.Fatalf("laggard not evicted: %+v", stats)
	}
	if _, ok := st.TailSince(1); ok {
		t.Fatal("evicted laggard's window still retained")
	}
	// The unbounded-retention bug this guards against: without eviction
	// and floor advance the WAL would hold every record forever.
	if stats.SegmentRecords >= every {
		t.Fatalf("WAL retains %d records for an evicted laggard", stats.SegmentRecords)
	}
}

// TestMemTailBounded: a memory-only store with no followers must not
// retain its tail indefinitely.
func TestMemTailBounded(t *testing.T) {
	st, err := store.Open("d", store.Options{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	st.Declare("R", 2, 1)
	for i := 0; i < 200; i++ {
		st.Insert(db.F("R", "k", string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	if stats := st.Stats(); stats.TailRecords > 17 {
		t.Fatalf("mem tail grew unbounded: %+v", stats)
	}
}
