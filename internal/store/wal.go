// WAL record format. Every mutation the store acknowledges is first
// framed as one append-only record:
//
//	u32 LE  payload length n (1 ≤ n ≤ maxRecordLen)
//	u32 LE  IEEE CRC-32 of the payload
//	n bytes payload
//
// The payload is, in order: the store version the record produces
// (uvarint), the op kind (one byte), the relation name (uvarint length +
// bytes), then kind-specific fields — declare carries arity and key
// (uvarints), insert and delete carry the argument count followed by the
// arguments (each uvarint length + bytes). Multiple records may share a
// version: a batch applies atomically under one version bump.
//
// Replay reads records sequentially and stops at the first anomaly —
// a short header or payload (the torn tail a crash mid-append leaves
// behind), a CRC mismatch, or an undecodable payload. Everything before
// the anomaly is intact by CRC; everything after is discarded, so a torn
// write can never materialize a phantom fact.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Op kinds.
const (
	opDeclare byte = 1
	opInsert  byte = 2
	opDelete  byte = 3
)

// maxRecordLen bounds one record's payload; longer lengths in a header
// are treated as corruption rather than allocated.
const maxRecordLen = 1 << 20

// walOp is one decoded mutation.
type walOp struct {
	kind  byte
	rel   string
	arity int
	key   int
	args  []string
}

// walRec is one WAL record: the version it produces and its op.
type walRec struct {
	version uint64
	op      walOp
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeRecord frames one record, returning header + payload bytes.
func encodeRecord(rec walRec) []byte {
	p := binary.AppendUvarint(nil, rec.version)
	p = append(p, rec.op.kind)
	p = appendString(p, rec.op.rel)
	switch rec.op.kind {
	case opDeclare:
		p = binary.AppendUvarint(p, uint64(rec.op.arity))
		p = binary.AppendUvarint(p, uint64(rec.op.key))
	default:
		p = binary.AppendUvarint(p, uint64(len(rec.op.args)))
		for _, a := range rec.op.args {
			p = appendString(p, a)
		}
	}
	out := make([]byte, 8, 8+len(p))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(p))
	return append(out, p...)
}

// cursor is a bounds-checked reader over one payload.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: truncated uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) byte1() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("store: truncated byte at offset %d", c.off)
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.b)-c.off) {
		return "", fmt.Errorf("store: string length %d exceeds payload", n)
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// decodePayload decodes one CRC-verified payload strictly: every byte
// must be consumed and every count must fit the remaining bytes.
func decodePayload(p []byte) (walRec, error) {
	c := &cursor{b: p}
	var rec walRec
	var err error
	if rec.version, err = c.uvarint(); err != nil {
		return rec, err
	}
	if rec.op.kind, err = c.byte1(); err != nil {
		return rec, err
	}
	if rec.op.rel, err = c.str(); err != nil {
		return rec, err
	}
	switch rec.op.kind {
	case opDeclare:
		arity, err := c.uvarint()
		if err != nil {
			return rec, err
		}
		key, err := c.uvarint()
		if err != nil {
			return rec, err
		}
		if arity == 0 || arity > maxRecordLen || key == 0 || key > arity {
			return rec, fmt.Errorf("store: invalid signature [%d, %d] in declare record", arity, key)
		}
		rec.op.arity, rec.op.key = int(arity), int(key)
	case opInsert, opDelete:
		n, err := c.uvarint()
		if err != nil {
			return rec, err
		}
		if n > uint64(len(p)) { // each arg needs ≥ 1 byte of payload
			return rec, fmt.Errorf("store: argument count %d exceeds payload", n)
		}
		rec.op.args = make([]string, n)
		for i := range rec.op.args {
			if rec.op.args[i], err = c.str(); err != nil {
				return rec, err
			}
		}
	default:
		return rec, fmt.Errorf("store: unknown op kind %d", rec.op.kind)
	}
	if c.off != len(p) {
		return rec, fmt.Errorf("store: %d trailing bytes in record payload", len(p)-c.off)
	}
	return rec, nil
}

// readRecords decodes the longest valid record prefix of data. It
// returns the decoded records, the byte length of that prefix (the
// truncation point for a torn tail), and a non-nil err when the prefix
// ends at corruption (CRC mismatch, bad length, undecodable payload)
// rather than at a clean or short tail. readRecords never panics,
// whatever the input.
func readRecords(data []byte) (recs []walRec, valid int, err error) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, nil // clean end
		}
		if len(rest) < 8 {
			return recs, off, nil // torn header
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxRecordLen {
			return recs, off, fmt.Errorf("store: implausible record length %d at offset %d", n, off)
		}
		if uint32(len(rest)-8) < n {
			return recs, off, nil // torn payload
		}
		p := rest[8 : 8+n]
		if crc32.ChecksumIEEE(p) != crc {
			return recs, off, fmt.Errorf("store: CRC mismatch at offset %d", off)
		}
		rec, derr := decodePayload(p)
		if derr != nil {
			return recs, off, fmt.Errorf("store: record at offset %d: %w", off, derr)
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
}
