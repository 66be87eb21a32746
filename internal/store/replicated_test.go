package store

import (
	"testing"

	"cqa/internal/db"
)

// A replicated batch takes the primary's version and publishes it even
// when every op is a no-op locally: readers and Changed waiters see the
// version move, and the apply hook hears of it. Delivering the same
// version again does nothing.
func TestReplicatedNoOpBatchPublishes(t *testing.T) {
	s := NewMem("replicated", nil)
	defer s.Close()
	if _, err := s.Declare("R", 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(db.F("R", "a", "1")); err != nil {
		t.Fatal(err)
	}
	var hooked []Change
	s.SetOnApply(func(c Change) { hooked = append(hooked, c) })
	before := s.Snapshot()
	changed := s.Changed()

	dup := []walOp{{kind: opInsert, rel: "R", args: []string{"a", "1"}}}
	c, err := s.apply(7, dup)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 7 || c.Applied != 0 || len(c.Rels) != 0 || len(c.Blocks) != 0 {
		t.Fatalf("change = %+v, want version 7 with nothing applied", c)
	}
	if v := s.Version(); v != 7 {
		t.Fatalf("version = %d, want the primary's 7", v)
	}
	select {
	case <-changed:
	default:
		t.Fatal("a no-op replicated batch did not wake Changed waiters")
	}
	if len(hooked) != 1 || hooked[0].Version != 7 {
		t.Fatalf("apply hook saw %+v, want one change at version 7", hooked)
	}
	if got := s.Snapshot().DB.String(); got != before.DB.String() {
		t.Fatalf("no-op batch changed the facts: %q, want %q", got, before.DB.String())
	}

	changed = s.Changed()
	if c, err := s.apply(7, dup); err != nil || c.Version != 7 || c.Applied != 0 {
		t.Fatalf("duplicate delivery = %+v, %v; want a no-op at version 7", c, err)
	}
	select {
	case <-changed:
		t.Fatal("a duplicate delivery published")
	default:
	}
	if len(hooked) != 1 {
		t.Fatalf("a duplicate delivery reached the apply hook: %+v", hooked)
	}
}

// A durable store owns its versions: a replicated batch is refused and
// changes nothing.
func TestReplicatedApplyRefusesDurableStore(t *testing.T) {
	s, err := Open("durable", Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Declare("R", 2, 1); err != nil {
		t.Fatal(err)
	}
	records := s.Stats().WALRecords
	if _, err := s.apply(5, []walOp{{kind: opInsert, rel: "R", args: []string{"a", "1"}}}); err == nil {
		t.Fatal("replicated apply onto a durable store succeeded")
	}
	if v := s.Version(); v != 1 {
		t.Fatalf("version = %d after a refused batch, want 1", v)
	}
	if s.Snapshot().DB.Has(db.F("R", "a", "1")) {
		t.Fatal("a refused batch was applied")
	}
	if got := s.Stats().WALRecords; got != records {
		t.Fatalf("WAL records = %d after a refused batch, want %d", got, records)
	}
}
