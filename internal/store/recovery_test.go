package store_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/store"
)

// seqFact is the i-th fact of the deterministic write sequence used by
// the recovery tests.
func seqFact(i int) db.Fact {
	return db.F("R", string(rune('a'+i%4)), string(rune('0'+i)))
}

// writeSeq opens a fresh durable store named "k" in dir and applies the
// declare plus n single-fact writes, then abandons the store without
// Close — leaving the files exactly as a SIGKILL would. It returns the
// rendered database after every acknowledged version.
func writeSeq(t *testing.T, dir string, n int) []string {
	t.Helper()
	st, err := store.Open("k", store.Options{Dir: dir, CheckpointEvery: 1 << 30, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{st.Snapshot().DB.String()} // empty, pre-declare
	if _, err := st.Declare("R", 2, 1); err != nil {
		t.Fatal(err)
	}
	states = append(states, st.Snapshot().DB.String())
	for i := 0; i < n; i++ {
		if _, err := st.Insert(seqFact(i)); err != nil {
			t.Fatal(err)
		}
		states = append(states, st.Snapshot().DB.String())
	}
	return states
}

// Truncating the WAL mid-record must recover exactly an acknowledged
// prefix: every cut point lands on some previously acknowledged state,
// never on a phantom, and recovery repairs the file so a second open
// agrees.
func TestKillAndRecoverTruncatedWAL(t *testing.T) {
	dir := t.TempDir()
	acked := writeSeq(t, dir, 8)
	valid := make(map[string]bool, len(acked))
	for _, s := range acked {
		valid[s] = true
	}
	walPath := filepath.Join(dir, "k.wal")
	snapPath := filepath.Join(dir, "k.snap")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the log at every 7th byte boundary, which lands both on and
	// between record boundaries.
	for cut := len(full); cut >= 0; cut -= 7 {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open("k", store.Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		got := st.Snapshot().DB.String()
		if !valid[got] {
			t.Fatalf("cut %d: recovered a state never acknowledged:\n%s", cut, got)
		}
		// Recovery truncated the torn tail: reopening the repaired log
		// (bypassing Close, which would checkpoint) reproduces the state.
		repaired, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(repaired) > cut {
			t.Fatalf("cut %d: recovery grew the log to %d bytes", cut, len(repaired))
		}
		st2, err := store.Open("k", store.Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: second open failed: %v", cut, err)
		}
		if got2 := st2.Snapshot().DB.String(); got2 != got {
			t.Fatalf("cut %d: second recovery diverged:\n%s\nvs\n%s", cut, got2, got)
		}
		// Close checkpoints; drop the snapshot so the next (shorter) cut
		// still exercises pure WAL replay.
		st.Close()
		st2.Close()
		os.Remove(snapPath)
	}
}

// The last acknowledged write survives a kill: with Sync on, a write
// whose Insert returned is recovered even though the store was never
// closed.
func TestLastAcknowledgedWriteSurvives(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open("ack", store.Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	st.Declare("R", 2, 1)
	ch, err := st.Insert(db.F("R", "last", "write"))
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the WAL file is abandoned like a SIGKILL would leave it.
	re, err := store.Open("ack", store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Snapshot(); got.Version != ch.Version || !got.DB.Has(db.F("R", "last", "write")) {
		t.Fatalf("acknowledged write lost: recovered v%d\n%s", got.Version, got.DB.String())
	}
	if re.Stats().RecoveredRecords != 2 {
		t.Fatalf("recovered records = %d, want 2", re.Stats().RecoveredRecords)
	}
}

// Corrupting a byte in the tail record must not produce phantom facts:
// the CRC rejects the record and recovery stops at the previous one.
func TestCorruptTailRecordIsDropped(t *testing.T) {
	dir := t.TempDir()
	writeSeq(t, dir, 3)
	walPath := filepath.Join(dir, "k.wal")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0xFF
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("k", store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery with corrupt tail failed: %v", err)
	}
	defer st.Close()
	if got := st.Snapshot().DB.Size(); got != 2 {
		t.Fatalf("recovered %d facts, want 2 (corrupt third dropped)", got)
	}
	if st.Snapshot().DB.Has(seqFact(2)) {
		t.Fatal("corrupt record resurrected its fact")
	}
}

// A batch spans several WAL records sharing one version; recovery must
// replay all of them, not just the first per version (regression: the
// replay cutoff was the running version instead of the checkpoint
// version, dropping everything after a batch's first record).
func TestMultiRecordBatchSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open("b", store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seed := parse.MustDatabase("R(a | 1)\nR(a | 2)\nS(z | z)")
	if _, err := st.ApplyDB(seed); err != nil { // declares + inserts, one version
		t.Fatal(err)
	}
	if _, err := st.Insert(db.F("R", "b", "7"), db.F("S", "y", "y")); err != nil {
		t.Fatal(err)
	}
	want := st.Snapshot()
	// No Close: the WAL is the only surviving state, like a SIGKILL.

	st2, err := store.Open("b", store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.Snapshot()
	if got.Version != want.Version {
		t.Fatalf("recovered version %d, want %d", got.Version, want.Version)
	}
	if got.DB.String() != want.DB.String() {
		t.Fatalf("recovered database diverged:\n%s\nwant:\n%s", got.DB.String(), want.DB.String())
	}
	if got.DB.Size() != 5 {
		t.Fatalf("recovered %d facts, want 5", got.DB.Size())
	}
}

// A created store is born holding its seed as its first checkpoint, so
// recovering it is a load: dropped without Close, as a kill leaves it,
// it reopens with the seed's facts at version 1 and an empty WAL. A
// later insert is logged and replays over that checkpoint.
func TestCreatedStoreRecoversFromItsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opt := store.Options{Dir: dir, CheckpointEvery: 1 << 30}
	seed := parse.MustDatabase("R(a | 1)\nR(a | 2)\nS(b | c)\n")
	if err := seed.DeclareRelation("T", 2, 1); err != nil {
		t.Fatal(err)
	}
	want := seed.String()
	set, err := store.OpenSet(opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := set.Create(context.Background(), "k", seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.Version != 1 || stats.CheckpointVersion != 1 || stats.SegmentRecords != 0 {
		t.Fatalf("created store: %+v, want version 1, checkpointed, no WAL records", stats)
	}
	if fi, err := os.Stat(filepath.Join(dir, "k.wal")); err != nil || fi.Size() != 0 {
		t.Fatalf("k.wal after create: %v, %v; want an empty file", fi, err)
	}

	re, err := store.Open("k", opt)
	if err != nil {
		t.Fatal(err)
	}
	snap, stats := re.Snapshot(), re.Stats()
	if snap.Version != 1 || snap.DB.String() != want || stats.RecoveredRecords != 0 || stats.CheckpointVersion != 1 {
		t.Fatalf("recovered version %d, %d records replayed, checkpoint %d:\n%s\nwant version 1, none replayed, checkpoint 1:\n%s",
			snap.Version, stats.RecoveredRecords, stats.CheckpointVersion, snap.DB, want)
	}
	re.Close()

	if c, err := st.Insert(db.F("R", "b", "3")); err != nil || c.Version != 2 {
		t.Fatalf("insert after create: %+v, %v; want version 2", c, err)
	}
	want = st.Snapshot().DB.String()
	re, err = store.Open("k", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap, stats = re.Snapshot(), re.Stats()
	if snap.Version != 2 || snap.DB.String() != want || stats.RecoveredRecords != 1 {
		t.Fatalf("recovered version %d, %d records replayed:\n%s\nwant version 2, 1 replayed:\n%s",
			snap.Version, stats.RecoveredRecords, snap.DB, want)
	}
}
