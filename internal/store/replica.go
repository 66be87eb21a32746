// Follower replicas: applying a WAL stream to a memory-only store.
// A Replica wraps a mem store and consumes streams produced by
// Store.ServeStream, publishing each batch only at its commit marker
// so readers on the replica never observe a torn batch, however the
// stream dies.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"cqa/internal/db"
)

// maxPendingOps bounds one uncommitted replicated batch; a stream
// claiming more is corrupt or hostile.
const maxPendingOps = 1 << 20

// ResetTo replaces a memory-only store's contents wholesale — the
// snapshot-bootstrap landing. The tail is cleared (nothing before the
// reset can be streamed onward) and every waiter is woken.
func (s *Store) ResetTo(d *db.Database, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wal != nil {
		return errors.New("store: reset of a durable store")
	}
	if d == nil {
		d = db.New()
	}
	s.tail = nil
	s.tailFloor = version
	s.cur.Store(&Snapshot{DB: d, Version: version})
	s.notifyLocked()
	return nil
}

// Replica consumes WAL streams into a memory-only store. One stream at
// a time; reconnect by calling ApplyStream again with a fresh stream
// opened from Store().Version().
type Replica struct {
	st *Store

	mu      sync.Mutex // serializes ApplyStream
	onReset func(version uint64)

	batches atomic.Uint64
	records atomic.Uint64
	resets  atomic.Uint64
}

// NewReplica returns a replica over a fresh memory-only store.
func NewReplica(name string) *Replica {
	return &Replica{st: NewMem(name, nil)}
}

// Store returns the underlying store for reads (and Set adoption).
func (r *Replica) Store() *Store { return r.st }

// Version returns the last committed replicated version.
func (r *Replica) Version() uint64 { return r.st.Version() }

// SetOnReset registers fn to run after every snapshot-bootstrap reset.
// Cached results derived from earlier versions of this replica must be
// dropped: a reset may reuse version numbers of a divergent incarnation.
func (r *Replica) SetOnReset(fn func(version uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onReset = fn
}

// Stats reports stream-application counters: committed batches, applied
// records, snapshot resets.
func (r *Replica) Stats() (batches, records, resets uint64) {
	return r.batches.Load(), r.records.Load(), r.resets.Load()
}

// ApplyStream consumes one stream produced by ServeStream: header,
// optional snapshot bootstrap, then record frames, committing a batch
// at each opCommit marker. It returns nil when the stream ends cleanly
// at a batch boundary and an error otherwise; in both cases the store
// is consistent at the last committed version, and the caller may
// reconnect from Version().
func (r *Replica) ApplyStream(src io.Reader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	br := bufio.NewReaderSize(src, 64<<10)

	line, err := br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("store: reading stream header: %w", err)
	}
	var h StreamHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("store: decoding stream header: %w", err)
	}
	switch h.Mode {
	case "snapshot":
		if h.Records < 0 || h.Records > maxPendingOps {
			return fmt.Errorf("store: implausible snapshot record count %d", h.Records)
		}
		ld := db.NewLoader()
		for i := 0; i < h.Records; i++ {
			rec, err := readStreamRecord(br)
			if err != nil {
				return fmt.Errorf("store: snapshot bootstrap record %d/%d: %w", i, h.Records, err)
			}
			if rec.version != h.Version {
				return fmt.Errorf("store: snapshot record at version %d, want %d", rec.version, h.Version)
			}
			if rec.op.kind == opCommit {
				return fmt.Errorf("store: commit marker inside snapshot bootstrap (record %d/%d)", i, h.Records)
			}
			if err := loadOp(ld, rec.op); err != nil {
				return fmt.Errorf("store: snapshot bootstrap: %w", err)
			}
		}
		if err := r.st.ResetTo(ld.Database(), h.Version); err != nil {
			return err
		}
		r.resets.Add(1)
		r.records.Add(uint64(h.Records))
		if r.onReset != nil {
			r.onReset(h.Version)
		}
	case "tail":
	default:
		return fmt.Errorf("store: unknown stream mode %q", h.Mode)
	}

	var pending []walOp
	var pendingV uint64
	for {
		rec, err := readStreamRecord(br)
		if err == io.EOF {
			if len(pending) > 0 {
				return fmt.Errorf("store: stream ended mid-batch at version %d (%d records dropped)",
					pendingV, len(pending))
			}
			return nil
		}
		if err != nil {
			return err
		}
		if rec.op.kind == opCommit {
			if len(pending) == 0 {
				continue // heartbeat, or the marker closing a bootstrap
			}
			if rec.version != pendingV {
				return fmt.Errorf("store: commit marker for version %d closes batch at version %d",
					rec.version, pendingV)
			}
			if _, err := r.st.apply(pendingV, pending); err != nil {
				return err
			}
			r.batches.Add(1)
			r.records.Add(uint64(len(pending)))
			pending, pendingV = nil, 0
			continue
		}
		if rec.version <= r.st.Version() {
			continue // duplicate delivery of an already-committed version
		}
		if len(pending) > 0 && rec.version != pendingV {
			return fmt.Errorf("store: version %d record arrived before version %d committed",
				rec.version, pendingV)
		}
		if len(pending) >= maxPendingOps {
			return fmt.Errorf("store: uncommitted batch exceeds %d records", maxPendingOps)
		}
		pendingV = rec.version
		pending = append(pending, rec.op)
	}
}

// readStreamRecord reads one CRC-framed record from a stream. io.EOF
// at a frame boundary is a clean end; anything else (torn header or
// payload, CRC mismatch, undecodable payload) is an error.
func readStreamRecord(br *bufio.Reader) (walRec, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return walRec{}, io.EOF
		}
		return walRec{}, fmt.Errorf("store: torn stream frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxRecordLen {
		return walRec{}, fmt.Errorf("store: implausible stream record length %d", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(br, p); err != nil {
		return walRec{}, fmt.Errorf("store: torn stream record payload: %w", err)
	}
	if crc32.ChecksumIEEE(p) != crc {
		return walRec{}, errors.New("store: stream record CRC mismatch")
	}
	rec, err := decodePayload(p)
	if err != nil {
		return walRec{}, fmt.Errorf("store: stream record: %w", err)
	}
	return rec, nil
}
