// WAL streaming: the catch-up protocol between a primary store and its
// follower replicas.
//
// A stream is one JSON header line followed by CRC-framed WAL records
// (the exact on-disk format of wal.go). Two modes:
//
//   - "tail": the follower's version is within the primary's retained
//     tail, so the stream resumes with records strictly after it.
//   - "snapshot": the follower pre-dates the oldest retained record (or
//     claims a version the primary never produced — a divergent
//     incarnation), so the stream opens with a full snapshot bootstrap:
//     header.Records frames rendering the current database, which the
//     follower must apply atomically as a reset before tailing.
//
// Every version's records are followed by one opCommit frame carrying
// that version. A follower buffers records and publishes only at the
// commit marker, so a stream cut mid-batch can never materialize a
// torn write — the pending records are dropped and re-sent on
// reconnect. See docs/SHARDING.md for the full state machine.
package store

import (
	"encoding/json"
	"fmt"
	"io"
)

// StreamHeader is the first line of a WAL stream, JSON-encoded and
// newline-terminated.
type StreamHeader struct {
	// Database is the serving store's name.
	Database string `json:"database"`
	// Mode is "tail" or "snapshot".
	Mode string `json:"mode"`
	// Version is the resume point: in tail mode the version the stream
	// continues after; in snapshot mode the version of the bootstrap.
	Version uint64 `json:"version"`
	// Records is the number of bootstrap frames that follow the header
	// in snapshot mode (0 in tail mode).
	Records int `json:"records"`
}

// TailBatch is one version's worth of retained records.
type TailBatch struct {
	Version uint64
	Frames  []byte // concatenated CRC-framed records, without commit marker
	Records int
}

// TailSince returns the retained batches with version > from, grouped
// by version, and whether from is still within the retained tail. A
// false return means the retention floor has advanced past from and the
// caller needs a snapshot bootstrap.
func (s *Store) TailSince(from uint64) ([]TailBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.tailFloor {
		return nil, false
	}
	var out []TailBatch
	for _, tr := range s.tail {
		if tr.version <= from {
			continue
		}
		if len(out) == 0 || out[len(out)-1].Version != tr.version {
			out = append(out, TailBatch{Version: tr.version})
		}
		b := &out[len(out)-1]
		b.Frames = append(b.Frames, tr.frame...)
		b.Records++
	}
	return out, true
}

// RegisterFollower records that follower id has applied everything up
// to ack; the retention floor will not advance past ack until the
// follower advances or falls further behind than DefaultMaxFollowerLag.
// Registration is idempotent and never moves an existing ack backwards,
// so a follower's later acks call it too.
func (s *Store) RegisterFollower(id string, ack uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.cur.Load().Version; ack > cur {
		ack = cur
	}
	if prev, ok := s.followers[id]; ok && prev >= ack {
		return
	}
	s.followers[id] = ack
}

// FollowerAcks returns a copy of the registered follower → ack map.
func (s *Store) FollowerAcks() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.followers))
	for id, ack := range s.followers {
		out[id] = ack
	}
	return out
}

// commitFrame encodes the opCommit marker closing version v.
func commitFrame(v uint64) []byte {
	return encodeRecord(walRec{version: v, op: walOp{kind: opCommit}})
}

// StreamOptions configures ServeStream.
type StreamOptions struct {
	// From is the version the client has already applied.
	From uint64
	// Follower, when non-empty, registers the client in the retention
	// floor and advances its ack as batches are written.
	Follower string
	// Follow keeps the stream open, pushing new batches as they commit,
	// until Stop closes or the store closes. Off, the stream ends once
	// the current tail is drained.
	Follow bool
	// Stop ends a following stream when closed. Optional.
	Stop <-chan struct{}
	// Flush, when non-nil, runs after the header and after every batch —
	// the hook for HTTP response flushing.
	Flush func()
}

// ServeStream writes the catch-up stream for o.From to w: a header,
// a snapshot bootstrap when the tail no longer reaches back to o.From
// (or o.From is ahead of this store — a divergent follower that must
// reset), then tail batches, each closed by a commit marker. It returns
// nil on a clean end (tail drained, Stop closed, or store closed) and
// the write error otherwise.
func (s *Store) ServeStream(w io.Writer, o StreamOptions) error {
	from := o.From
	snap := s.Snapshot()
	_, inTail := s.TailSince(from)
	if o.Follower != "" {
		s.RegisterFollower(o.Follower, from)
	}

	if !inTail || from > snap.Version {
		// Snapshot bootstrap: render the current snapshot as frames and
		// reset the follower to it.
		frames, count := snapshotRecords(snap.DB, snap.Version)
		hdr, err := json.Marshal(StreamHeader{
			Database: s.name, Mode: "snapshot", Version: snap.Version, Records: count,
		})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(hdr, '\n')); err != nil {
			return err
		}
		if _, err := w.Write(frames); err != nil {
			return err
		}
		if _, err := w.Write(commitFrame(snap.Version)); err != nil {
			return err
		}
		from = snap.Version
	} else {
		hdr, err := json.Marshal(StreamHeader{Database: s.name, Mode: "tail", Version: from})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(hdr, '\n')); err != nil {
			return err
		}
	}
	if o.Flush != nil {
		o.Flush()
	}
	if o.Follower != "" {
		s.RegisterFollower(o.Follower, from)
	}

	for {
		// Take the change channel before draining: a publish between the
		// drain and the wait then still wakes us.
		ch := s.Changed()
		batches, ok := s.TailSince(from)
		if !ok {
			return fmt.Errorf("store: retention floor passed version %d mid-stream", from)
		}
		for _, b := range batches {
			if _, err := w.Write(b.Frames); err != nil {
				return err
			}
			if _, err := w.Write(commitFrame(b.Version)); err != nil {
				return err
			}
			from = b.Version
			if o.Follower != "" {
				s.RegisterFollower(o.Follower, from)
			}
			if o.Flush != nil {
				o.Flush()
			}
		}
		if !o.Follow {
			return nil
		}
		if s.IsClosed() {
			return nil
		}
		select {
		case <-ch:
		case <-o.Stop:
			return nil
		}
	}
}

// IsClosed reports whether Close has been called.
func (s *Store) IsClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
