package store_test

import (
	"bytes"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/store"
)

// serveTo drains st's stream for a client at version from into a buffer.
func serveTo(t *testing.T, st *store.Store, from uint64, follower string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.ServeStream(&buf, store.StreamOptions{From: from, Follower: follower}); err != nil {
		t.Fatalf("ServeStream(from=%d): %v", from, err)
	}
	return buf.Bytes()
}

func sameState(t *testing.T, a, b store.Snapshot, label string) {
	t.Helper()
	if a.Version != b.Version {
		t.Fatalf("%s: version %d vs %d", label, a.Version, b.Version)
	}
	if a.DB.String() != b.DB.String() {
		t.Fatalf("%s: state diverged at v%d:\n%s\nvs\n%s", label, a.Version, a.DB.String(), b.DB.String())
	}
}

func TestStreamTailRoundTrip(t *testing.T) {
	p := store.NewMem("d", nil)
	p.Declare("R", 2, 1)
	p.Insert(db.F("R", "a", "1"), db.F("R", "a", "2"))
	p.Insert(db.F("R", "b", "1"))
	p.Delete(db.F("R", "a", "2"))

	r := store.NewReplica("d")
	if err := r.ApplyStream(bytes.NewReader(serveTo(t, p, 0, "f1"))); err != nil {
		t.Fatalf("ApplyStream: %v", err)
	}
	sameState(t, p.Snapshot(), r.Store().Snapshot(), "after initial catch-up")

	// Incremental resume from the replica's own version.
	p.Insert(db.F("R", "c", "9"))
	p.Delete(db.F("R", "b", "1"))
	if err := r.ApplyStream(bytes.NewReader(serveTo(t, p, r.Version(), "f1"))); err != nil {
		t.Fatalf("resume ApplyStream: %v", err)
	}
	sameState(t, p.Snapshot(), r.Store().Snapshot(), "after resume")

	batches, records, resets := r.Stats()
	if resets != 0 {
		t.Fatalf("tail round trip took %d snapshot resets, want 0", resets)
	}
	if batches == 0 || records == 0 {
		t.Fatalf("no batches/records applied (batches=%d records=%d)", batches, records)
	}
	if acks := p.FollowerAcks(); acks["f1"] != p.Version() {
		t.Fatalf("follower ack = %d, want %d", acks["f1"], p.Version())
	}
}

func TestStreamSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	p, err := store.Open("d", store.Options{Dir: dir, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Declare("R", 2, 1)
	for i := 0; i < 10; i++ {
		p.Insert(db.F("R", string(rune('a'+i)), "1"))
	}
	// Checkpoints have advanced the retention floor past version 0.
	if _, ok := p.TailSince(0); ok {
		t.Fatalf("tail still reaches version 0 after checkpoints (stats %+v)", p.Stats())
	}

	r := store.NewReplica("d")
	if err := r.ApplyStream(bytes.NewReader(serveTo(t, p, 0, ""))); err != nil {
		t.Fatalf("ApplyStream: %v", err)
	}
	sameState(t, p.Snapshot(), r.Store().Snapshot(), "after snapshot bootstrap")
	if _, _, resets := r.Stats(); resets != 1 {
		t.Fatalf("resets = %d, want 1", resets)
	}
}

func TestStreamTornBatchIsAtomic(t *testing.T) {
	p := store.NewMem("d", nil)
	p.Declare("R", 2, 1)
	p.Insert(db.F("R", "a", "1"))
	beforeLast := p.Snapshot()
	p.Insert(db.F("R", "b", "1"), db.F("R", "b", "2"), db.F("R", "b", "3"))

	full := serveTo(t, p, 0, "")
	// Cut the stream inside the last batch: its commit marker (the final
	// frame) is lost, so the batch must not publish.
	torn := full[:len(full)-5]

	r := store.NewReplica("d")
	if err := r.ApplyStream(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn stream applied without error")
	}
	sameState(t, beforeLast, r.Store().Snapshot(), "after torn stream")

	// Reconnect from the replica's version converges.
	if err := r.ApplyStream(bytes.NewReader(serveTo(t, p, r.Version(), ""))); err != nil {
		t.Fatalf("reconnect ApplyStream: %v", err)
	}
	sameState(t, p.Snapshot(), r.Store().Snapshot(), "after reconnect")
}

func TestStreamDivergentFollowerResets(t *testing.T) {
	p := store.NewMem("d", nil)
	p.Declare("R", 2, 1)
	p.Insert(db.F("R", "a", "1"))

	// A replica from a lost incarnation claims a version the primary
	// never produced; the stream must reset it, not tail it.
	r := store.NewReplica("d")
	r.Store().Declare("Zombie", 1, 1)
	for i := 0; i < 40; i++ {
		r.Store().Insert(db.F("Zombie", string(rune('a'+i%26))))
	}
	if r.Version() <= p.Version() {
		t.Fatalf("test setup: replica %d not ahead of primary %d", r.Version(), p.Version())
	}
	if err := r.ApplyStream(bytes.NewReader(serveTo(t, p, r.Version(), ""))); err != nil {
		t.Fatalf("ApplyStream: %v", err)
	}
	sameState(t, p.Snapshot(), r.Store().Snapshot(), "after divergence reset")
	if strings.Contains(r.Store().Snapshot().DB.String(), "Zombie") {
		t.Fatal("divergent state survived the reset")
	}
}

func TestStreamOnBatchAndOnReset(t *testing.T) {
	p := store.NewMem("d", nil)
	p.Declare("R", 2, 1)
	p.Insert(db.F("R", "a", "1"))

	r := store.NewReplica("d")
	var batchRels []string
	var resetAt uint64
	r.Store().SetOnApply(func(c store.Change) { batchRels = append(batchRels, c.Rels...) })
	r.SetOnReset(func(v uint64) { resetAt = v })

	if err := r.ApplyStream(bytes.NewReader(serveTo(t, p, 0, ""))); err != nil {
		t.Fatal(err)
	}
	if len(batchRels) == 0 || batchRels[0] != "R" {
		t.Fatalf("onBatch saw rels %v, want [R ...]", batchRels)
	}
	if resetAt != 0 {
		t.Fatalf("unexpected reset at %d", resetAt)
	}

	// Force a bootstrap (replica far ahead) and observe the reset hook.
	r2 := store.NewReplica("d")
	r2.SetOnReset(func(v uint64) { resetAt = v })
	for i := 0; i < 10; i++ {
		r2.Store().Insert(db.F("R", "x", "0")) // no declare: these all fail
	}
	r2.Store().Declare("S", 1, 1)
	for i := 0; i < 10; i++ {
		r2.Store().Insert(db.F("S", string(rune('a'+i))))
	}
	if err := r2.ApplyStream(bytes.NewReader(serveTo(t, p, r2.Version(), ""))); err != nil {
		t.Fatal(err)
	}
	if resetAt != p.Version() {
		t.Fatalf("onReset at %d, want %d", resetAt, p.Version())
	}
}
