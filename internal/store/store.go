// Package store is the mutable, versioned fact store underneath the
// serving stack. It wraps internal/db with three capabilities the
// immutable preloaded databases of the daemon lack:
//
//   - Copy-on-write snapshots: writers bump a monotonic version and
//     publish a fresh immutable *db.Database view; readers take the
//     current snapshot with one atomic load and evaluate against it for
//     as long as they like, never blocking a writer and never observing
//     a torn write. A write deep-copies only the relations it touches —
//     untouched relations are shared between consecutive versions.
//
//   - Durability: every acknowledged mutation is first appended to a
//     CRC-framed write-ahead log, with periodic full-snapshot
//     checkpoints; a created database's seed is its first checkpoint.
//     Recovery loads the checkpoint and replays the WAL records it does
//     not cover, truncating a torn tail (the partial record a crash
//     mid-append leaves behind) instead of failing.
//
//   - Block-level dirty tracking: every write reports the relations and
//     blocks (maximal key-equal groups — the paper's unit of
//     inconsistency) it touched, feeding the engine's incremental
//     result-cache invalidation: a write can only change CERTAINTY(q)
//     answers for queries that mention a touched relation.
//
// See docs/STORE.md for the record format and recovery semantics.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqa/internal/db"
	"cqa/internal/obs"
)

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrExists is returned when a database name is already in use.
var ErrExists = errors.New("store: database already exists")

// ErrBadName is returned for a name a store may not take.
var ErrBadName = errors.New("store: invalid name")

// DefaultCheckpointEvery is the WAL record count between automatic
// checkpoints when Options.CheckpointEvery ≤ 0.
const DefaultCheckpointEvery = 1024

// Options configures a store.
type Options struct {
	// Dir is the data directory; "" selects a memory-only store (no
	// durability, same snapshot and versioning semantics).
	Dir string
	// CheckpointEvery is the number of WAL records after which the store
	// checkpoints and truncates the log; ≤ 0 selects
	// DefaultCheckpointEvery.
	CheckpointEvery int
	// Sync fsyncs the WAL after every acknowledged batch. Off, a crash
	// can lose writes still in the OS page cache (but never corrupt:
	// replay stops at the torn tail either way).
	Sync bool
	// OnFsync, when non-nil, observes the duration of every WAL fsync
	// performed because Sync is set. Called under the store's write lock;
	// keep it cheap (a histogram observation, not I/O).
	OnFsync func(d time.Duration)
}

// Snapshot is one immutable version of the database. DB must not be
// mutated by callers; it remains valid (and consistent) forever, even
// as the store moves on.
type Snapshot struct {
	DB      *db.Database
	Version uint64
}

// BlockRef names one touched block: a relation and the key values of a
// maximal key-equal group.
type BlockRef struct {
	Rel string
	Key []string
}

// Change describes one acknowledged write batch.
type Change struct {
	// Version is the store version after the write; when Applied is 0
	// the batch was a no-op and Version is unchanged.
	Version uint64
	// Applied counts the mutations that took effect (duplicate inserts,
	// absent deletes, and re-declarations are filtered out).
	Applied int
	// Rels are the relations touched, sorted. Result-cache invalidation
	// keys off this set: queries not mentioning any touched relation
	// keep their cached answers.
	Rels []string
	// Blocks are the blocks touched, in application order.
	Blocks []BlockRef
}

// Stats is a point-in-time view of a store's counters.
type Stats struct {
	Version           uint64 // current published version
	CheckpointVersion uint64 // version of the last checkpoint (0 = none)
	Checkpoints       uint64 // checkpoints written since open
	WALRecords        uint64 // records appended since open
	RecoveredRecords  uint64 // WAL records replayed at open
	SegmentRecords    uint64 // records in the current WAL segment
}

// Store is a mutable, versioned fact database. Any number of goroutines
// may take and read snapshots concurrently; mutations are serialized
// internally and safe to issue from any goroutine.
type Store struct {
	name string
	opt  Options

	mu      sync.Mutex // serializes writers, checkpoints, Close
	wal     *os.File   // nil for memory-only stores
	closed  bool
	onApply func(Change)

	cur atomic.Pointer[Snapshot]

	segRecords  uint64 // records in the current WAL segment
	sinceCkpt   uint64 // records appended since the last checkpoint
	walRecords  atomic.Uint64
	recovered   uint64
	checkpoints atomic.Uint64
	checkpointV atomic.Uint64
}

// NewMem returns a memory-only store adopting base (nil selects an
// empty database) as its version-0 snapshot. The caller must not mutate
// base afterwards.
func NewMem(name string, base *db.Database) *Store {
	return newStore(name, Options{}, base, 0)
}

// newStore returns a store publishing base (nil is empty) at version.
// Its WAL, when durable, is opened by the caller (openWAL).
func newStore(name string, opt Options, base *db.Database, version uint64) *Store {
	if base == nil {
		base = db.New()
	}
	s := &Store{name: name, opt: opt}
	s.cur.Store(&Snapshot{DB: base, Version: version})
	return s
}

// durableOptions fills opt's defaults for a durable store and makes its
// data directory.
func durableOptions(opt Options) (Options, error) {
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = DefaultCheckpointEvery
	}
	return opt, os.MkdirAll(opt.Dir, 0o755)
}

// openWAL opens <name>.wal for appending, creating it; flag adds to the
// open flags (os.O_TRUNC to discard an earlier log).
func (s *Store) openWAL(flag int) error {
	f, err := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND|flag, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	return nil
}

// Open opens (or creates) the durable store named name under opt.Dir,
// recovering from the checkpoint and WAL left by a previous process.
// A torn WAL tail is truncated; everything acknowledged before it is
// recovered exactly. With opt.Dir == "" Open degenerates to NewMem.
func Open(name string, opt Options) (*Store, error) {
	if opt.Dir == "" {
		return NewMem(name, nil), nil
	}
	if err := validName(name); err != nil {
		return nil, err
	}
	opt, err := durableOptions(opt)
	if err != nil {
		return nil, err
	}
	s := &Store{name: name, opt: opt}

	base := db.New()
	var version uint64
	if d, v, err := readSnapshotFile(s.snapPath()); err == nil {
		base, version = d, v
		s.checkpointV.Store(v)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	walPath := s.walPath()
	if data, err := os.ReadFile(walPath); err == nil {
		recs, valid, _ := readRecords(data)
		if valid < len(data) {
			// Torn or corrupt tail: keep the acknowledged prefix.
			if err := os.Truncate(walPath, int64(valid)); err != nil {
				return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
			}
		}
		// Skip only records the checkpoint already covers (a crash
		// between checkpoint write and WAL truncation leaves them
		// behind). A batch spans several records sharing one version, so
		// the cutoff must be the checkpoint version, not the running
		// replay version.
		ckpt := version
		for _, rec := range recs {
			s.segRecords++
			if rec.version <= ckpt {
				continue
			}
			s.sinceCkpt++
			// Inserts and deletes are idempotent (a duplicate insert or an
			// absent delete is a no-op), so records double-covered by a
			// checkpoint are harmless even before the version filter.
			if _, _, err := applyEffective(base, rec.op); err != nil {
				return nil, fmt.Errorf("store: replaying WAL for %s: %w", name, err)
			}
			if rec.version > version {
				version = rec.version
			}
		}
		s.recovered = uint64(len(recs))
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	if err := s.openWAL(0); err != nil {
		return nil, err
	}
	s.cur.Store(&Snapshot{DB: base, Version: version})
	return s, nil
}

// create returns a store born holding seed (nil is empty) as its first
// snapshot: version 1 when seed declares a relation, else 0. Nothing is
// re-applied and nothing is logged. A durable store writes seed as its
// first checkpoint, under a checkpoint span of ctx's trace, before
// <name>.wal exists: a crash at any point leaves either no database or
// the whole seed, never an empty or partial one. A failed create
// removes what it wrote.
func create(ctx context.Context, name string, opt Options, seed *db.Database) (*Store, error) {
	var version uint64
	if seed != nil && len(seed.RelationNames()) > 0 {
		version = 1
	}
	if opt.Dir == "" {
		return newStore(name, opt, seed, version), nil
	}
	opt, err := durableOptions(opt)
	if err != nil {
		return nil, err
	}
	s := newStore(name, opt, seed, version)
	if version > 0 {
		sp := obs.FromContext(ctx).StartSpan("checkpoint")
		err := writeSnapshotFile(s.snapPath(), seed, version)
		sp.Fail(err)
		sp.End()
		if err != nil {
			return nil, err
		}
		s.checkpoints.Add(1)
		s.checkpointV.Store(version)
	}
	// O_TRUNC: no record of an earlier life of this name may replay over
	// the seed.
	if err := s.openWAL(os.O_TRUNC); err != nil {
		os.Remove(s.snapPath())
		return nil, err
	}
	return s, nil
}

func (s *Store) walPath() string  { return filepath.Join(s.opt.Dir, s.name+".wal") }
func (s *Store) snapPath() string { return filepath.Join(s.opt.Dir, s.name+".snap") }

// validName restricts store names to filesystem- and URL-safe tokens.
func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("%w %q", ErrBadName, name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return fmt.Errorf("%w %q (want [A-Za-z0-9._-]+)", ErrBadName, name)
		}
	}
	if name[0] == '.' {
		return fmt.Errorf("%w %q (must not start with a dot)", ErrBadName, name)
	}
	return nil
}

// Name returns the store's name.
func (s *Store) Name() string { return s.name }

// Durable reports whether writes are persisted (the store was opened
// with a data directory, as opposed to NewMem).
func (s *Store) Durable() bool { return s.opt.Dir != "" }

// Snapshot returns the current immutable snapshot with one atomic load;
// it never blocks, not even against an in-flight writer.
func (s *Store) Snapshot() Snapshot { return *s.cur.Load() }

// Version returns the current published version.
func (s *Store) Version() uint64 { return s.cur.Load().Version }

// SetOnApply registers fn to run after every effective write, after the
// snapshot is published and while the writer lock is still held:
// callbacks therefore observe changes in version order, and Snapshot
// called from fn returns the write's own snapshot, which the engine's
// result-cache maintenance depends on. fn must not call back into the
// store's mutation API.
func (s *Store) SetOnApply(fn func(Change)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onApply = fn
}

// Declare registers a relation with signature [arity, key].
func (s *Store) Declare(name string, arity, key int) (Change, error) {
	return s.apply([]walOp{{kind: opDeclare, rel: name, arity: arity, key: key}})
}

// Insert adds facts as one atomic batch (one version bump).
func (s *Store) Insert(facts ...db.Fact) (Change, error) {
	ops := make([]walOp, len(facts))
	for i, f := range facts {
		ops[i] = walOp{kind: opInsert, rel: f.Rel, args: f.Args}
	}
	return s.apply(ops)
}

// Delete removes facts as one atomic batch.
func (s *Store) Delete(facts ...db.Fact) (Change, error) {
	ops := make([]walOp, len(facts))
	for i, f := range facts {
		ops[i] = walOp{kind: opDelete, rel: f.Rel, args: f.Args}
	}
	return s.apply(ops)
}

// ApplyDB declares every relation of src and inserts every fact, as one
// atomic batch: WriteDB(src, src, false), the shape of an insert
// request. A new database is born holding its seed instead (Set.Create).
func (s *Store) ApplyDB(src *db.Database) (Change, error) {
	return s.WriteDB(src, src, false)
}

// WriteDB applies one atomic batch: it declares every relation of
// decls, then inserts every fact of facts, or deletes them when del is
// set. decls may be nil. Either every op is valid and the batch takes
// one version, or nothing is applied.
func (s *Store) WriteDB(decls, facts *db.Database, del bool) (Change, error) {
	var ops []walOp
	if decls != nil {
		for _, name := range decls.RelationNames() {
			r := decls.Relation(name)
			ops = append(ops, walOp{kind: opDeclare, rel: name, arity: r.Arity, key: r.Key})
		}
	}
	kind := opInsert
	if del {
		kind = opDelete
	}
	for _, name := range facts.RelationNames() {
		for _, f := range facts.Facts(name) {
			ops = append(ops, walOp{kind: kind, rel: name, args: f.Args})
		}
	}
	return s.apply(ops)
}

// apply validates, filters, logs, and publishes one batch. The batch
// takes the next version and publishes only when some op took effect.
func (s *Store) apply(ops []walOp) (Change, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Change{}, ErrClosed
	}
	cur := s.cur.Load()
	version := cur.Version + 1

	// Copy-on-write: deep-copy exactly the relations this batch names;
	// everything else is shared with the previous snapshot.
	touched := make(map[string]bool)
	for _, o := range ops {
		touched[o.rel] = true
	}
	rels := make([]string, 0, len(touched))
	for r := range touched {
		rels = append(rels, r)
	}
	next := cur.DB.CloneCOW(rels...)

	var change Change
	var logged []byte
	relSet := make(map[string]bool)
	for _, o := range ops {
		effective, block, err := applyEffective(next, o)
		if err != nil {
			return Change{}, err // nothing published, nothing logged
		}
		if !effective {
			continue
		}
		change.Applied++
		relSet[o.rel] = true
		if block != nil {
			change.Blocks = append(change.Blocks, BlockRef{Rel: o.rel, Key: block})
		}
		if s.wal != nil {
			logged = append(logged, encodeRecord(walRec{version: version, op: o})...)
		}
	}
	if change.Applied == 0 {
		return Change{Version: cur.Version}, nil
	}
	for r := range relSet {
		change.Rels = append(change.Rels, r)
	}
	sort.Strings(change.Rels)
	change.Version = version

	if s.wal != nil {
		if _, err := s.wal.Write(logged); err != nil {
			// The log may now hold a partial batch; refuse further writes
			// rather than risk acknowledged state diverging from the log.
			s.closed = true
			return Change{}, fmt.Errorf("store: WAL append failed, store closed: %w", err)
		}
		if s.opt.Sync {
			start := time.Now()
			if err := s.wal.Sync(); err != nil {
				s.closed = true
				return Change{}, fmt.Errorf("store: WAL sync failed, store closed: %w", err)
			}
			if s.opt.OnFsync != nil {
				s.opt.OnFsync(time.Since(start))
			}
		}
		n := uint64(change.Applied)
		s.segRecords += n
		s.sinceCkpt += n
		s.walRecords.Add(n)
	}

	// Keep the frozen view warm: when readers have frozen the previous
	// snapshot, freeze the next one here, on the writer's time. Only the
	// relations the write touched are frozen anew — the untouched ones are
	// shared by pointer and keep their view — and the dictionary is the
	// lineage's, so ids carry over. When no reader ever asked, skip: the
	// first compiled evaluation on the new snapshot will freeze it.
	if cur.DB.InternedIfBuilt() != nil {
		next.Interned()
	}

	s.cur.Store(&Snapshot{DB: next, Version: version})
	if s.onApply != nil {
		s.onApply(change)
	}
	if s.wal != nil && s.sinceCkpt >= uint64(s.opt.CheckpointEvery) {
		if err := s.checkpointLocked(); err != nil {
			return change, fmt.Errorf("store: checkpoint failed (write applied): %w", err)
		}
	}
	return change, nil
}

// applyEffective applies one op to next, reporting whether it changed
// anything and, for fact ops, the touched block's key values.
func applyEffective(next *db.Database, o walOp) (bool, []string, error) {
	switch o.kind {
	case opDeclare:
		if next.Relation(o.rel) != nil {
			// Existing relation: DeclareRelation checks signature agreement.
			return false, nil, next.DeclareRelation(o.rel, o.arity, o.key)
		}
		return true, nil, next.DeclareRelation(o.rel, o.arity, o.key)
	case opInsert:
		f := db.Fact{Rel: o.rel, Args: o.args}
		if next.Has(f) {
			return false, nil, nil
		}
		if err := next.Insert(f); err != nil {
			return false, nil, err
		}
		r := next.Relation(o.rel)
		return true, o.args[:r.Key], nil
	case opDelete:
		f := db.Fact{Rel: o.rel, Args: o.args}
		if !next.Has(f) {
			return false, nil, nil
		}
		r := next.Relation(o.rel)
		next.Remove(f)
		return true, o.args[:r.Key], nil
	default:
		return false, nil, fmt.Errorf("store: unknown op kind %d", o.kind)
	}
}

func (s *Store) checkpointLocked() error {
	cur := s.cur.Load()
	if err := writeSnapshotFile(s.snapPath(), cur.DB, cur.Version); err != nil {
		return err
	}
	// Only after the checkpoint is durably in place may the log shrink.
	// A crash in between double-covers some records; replay's version
	// filter (and op idempotence) makes that harmless.
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	s.segRecords = 0
	s.sinceCkpt = 0
	s.checkpoints.Add(1)
	s.checkpointV.Store(cur.Version)
	return nil
}

// Close checkpoints (when durable and the segment is non-empty) and
// releases the WAL. Snapshots already taken remain readable; mutations
// fail with ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	var err error
	if s.sinceCkpt > 0 {
		err = s.checkpointLocked()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	cur := s.cur.Load()
	s.mu.Lock()
	seg := s.segRecords
	s.mu.Unlock()
	return Stats{
		Version:           cur.Version,
		CheckpointVersion: s.checkpointV.Load(),
		Checkpoints:       s.checkpoints.Load(),
		WALRecords:        s.walRecords.Load(),
		RecoveredRecords:  s.recovered,
		SegmentRecords:    seg,
	}
}
