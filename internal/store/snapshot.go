// Snapshot checkpoint files. A checkpoint is the full database rendered
// as an 8-byte magic, the store version (u64 LE), and one WAL-framed
// record per declaration and fact. Checkpoints are written to a temp
// file, fsynced, and renamed into place, so a crash mid-checkpoint
// leaves the previous checkpoint intact; the WAL is only truncated
// after the rename succeeds, and replay skips records whose version is
// already covered by the checkpoint.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"cqa/internal/db"
)

var snapMagic = []byte("CQASNAP1")

// writeSnapshotFile atomically replaces path with a checkpoint of d at
// version.
func writeSnapshotFile(path string, d *db.Database, version uint64) error {
	var buf bytes.Buffer
	buf.Write(snapMagic)
	var vb [8]byte
	binary.LittleEndian.PutUint64(vb[:], version)
	buf.Write(vb[:])
	for _, name := range d.RelationNames() {
		r := d.Relation(name)
		buf.Write(encodeRecord(walRec{version: version,
			op: walOp{kind: opDeclare, rel: name, arity: r.Arity, key: r.Key}}))
		for _, f := range d.Facts(name) {
			buf.Write(encodeRecord(walRec{version: version,
				op: walOp{kind: opInsert, rel: name, args: f.Args}}))
		}
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// readSnapshotFile loads a checkpoint. Unlike the WAL — whose tail may
// legitimately be torn — a checkpoint was published by an atomic rename,
// so any damage is a hard error rather than something to truncate away.
func readSnapshotFile(path string) (*db.Database, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < len(snapMagic)+8 || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return nil, 0, fmt.Errorf("store: %s is not a snapshot file", path)
	}
	version := binary.LittleEndian.Uint64(data[len(snapMagic):])
	body := data[len(snapMagic)+8:]
	recs, valid, err := readRecords(body)
	if err != nil {
		return nil, 0, fmt.Errorf("store: corrupt snapshot %s: %w", path, err)
	}
	if valid != len(body) {
		return nil, 0, fmt.Errorf("store: snapshot %s has %d trailing bytes", path, len(body)-valid)
	}
	// A checkpoint holds declarations and inserts only
	// (writeSnapshotFile); deletes belong to the WAL, whose replay goes
	// through applyEffective.
	ld := db.NewLoader(len(recs))
	var ids []int32
	for _, rec := range recs {
		o := rec.op
		switch o.kind {
		case opDeclare:
			err = ld.Declare(o.rel, o.arity, o.key)
		case opInsert:
			ids = ids[:0]
			for _, a := range o.args {
				ids = append(ids, ld.ID(a))
			}
			err = ld.Add(o.rel, ids)
		default:
			err = fmt.Errorf("store: op kind %d in a snapshot", o.kind)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: snapshot %s: %w", path, err)
		}
	}
	return ld.Database(), version, nil
}
