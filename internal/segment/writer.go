// Package segment implements immutable, generation-numbered index
// segments: a one-shot writer that lays sorted key/value rows into a
// single flat file, and a zero-allocation reader that serves Get and
// cursor seeks directly over the mapped bytes — no page cache, no row
// rehydration. The index *is* the bytes (in the spirit of the lindb
// byte-array B+tree reader): queries binary-search a fixed-width skip
// directory and return subslices of the mapping.
//
// A segment file holds one or more named tables. Each table is a data
// region of concatenated key‖value rows followed by its skip directory
// (16 bytes per row: absolute key offset, key length, value length).
// The footer records, per table, the row count, directory offset and
// key-range fences (first/last key), then the generation epoch, the
// footer offset, a CRC-32C over everything before it, and a trailing
// magic:
//
//	"TRXSEG1\0"
//	table 0 data  | table 0 directory
//	table 1 data  | table 1 directory
//	...
//	footer: count, {name, rows, dirOff, firstKey, lastKey}...
//	epoch u64 | footerOff u64 | crc32c u32 | "TRXSEGE1"
//
// Segments are immutable once written. The Store (store.go) manages
// their lifecycle: a commit writes the next generation to the side,
// fsyncs it, and flips a manifest pointer, so live readers keep serving
// the old generation until they unpin.
package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	headMagic = "TRXSEG1\x00"
	tailMagic = "TRXSEGE1"
	// dirEntrySize is one skip-directory entry: key offset (u64), key
	// length (u32), value length (u32).
	dirEntrySize = 16
	// tailSize is the fixed trailer: footer offset (u64) + crc (u32) +
	// tail magic (8).
	tailSize = 8 + 4 + 8
	// maxNameLen bounds a table name in the footer (stored as u8 len).
	maxNameLen = 255
)

// castagnoli is the CRC-32C table, the same polynomial the storage
// journal uses for its page checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer builds one segment file in memory. Tables are written in
// sequence: BeginTable, then Append rows in strictly ascending key
// order, then either another BeginTable or Finish.
type Writer struct {
	buf    []byte
	tables []writerTable
	err    error
}

type writerTable struct {
	name     string
	dir      []byte // accumulated directory entries
	dirOffAt uint64 // where the directory landed in the buffer
	rows     int
	first    []byte
	last     []byte
	started  bool
}

// NewWriter returns an empty segment writer.
func NewWriter() *Writer {
	return &Writer{buf: append([]byte(nil), headMagic...)}
}

// BeginTable starts a new table. Table names must be unique, non-empty
// and at most 255 bytes.
func (w *Writer) BeginTable(name string) {
	if w.err != nil {
		return
	}
	w.sealTable()
	if name == "" || len(name) > maxNameLen {
		w.err = fmt.Errorf("segment: bad table name %q", name)
		return
	}
	for _, t := range w.tables {
		if t.name == name {
			w.err = fmt.Errorf("segment: duplicate table %q", name)
			return
		}
	}
	w.tables = append(w.tables, writerTable{name: name, started: true})
}

// Append adds one row to the current table. Keys must arrive in strictly
// ascending order; both slices are copied.
func (w *Writer) Append(key, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(w.tables) == 0 || !w.tables[len(w.tables)-1].started {
		w.err = fmt.Errorf("segment: Append before BeginTable")
		return w.err
	}
	t := &w.tables[len(w.tables)-1]
	if t.rows > 0 && bytes.Compare(t.last, key) >= 0 {
		w.err = fmt.Errorf("segment: keys out of order in table %q (%x after %x)", t.name, key, t.last)
		return w.err
	}
	off := uint64(len(w.buf))
	w.buf = append(w.buf, key...)
	w.buf = append(w.buf, value...)
	var e [dirEntrySize]byte
	binary.BigEndian.PutUint64(e[0:8], off)
	binary.BigEndian.PutUint32(e[8:12], uint32(len(key)))
	binary.BigEndian.PutUint32(e[12:16], uint32(len(value)))
	t.dir = append(t.dir, e[:]...)
	if t.rows == 0 {
		t.first = append([]byte(nil), key...)
	}
	t.last = append(t.last[:0], key...)
	t.rows++
	return nil
}

// sealTable flushes the current table's directory into the buffer.
func (w *Writer) sealTable() {
	if len(w.tables) == 0 {
		return
	}
	t := &w.tables[len(w.tables)-1]
	if !t.started {
		return
	}
	t.started = false
	t.dirOffAt = uint64(len(w.buf))
	w.buf = append(w.buf, t.dir...)
}

// Finish seals the last table, writes the footer stamped with epoch, and
// returns the complete segment image. The writer is spent afterwards.
func (w *Writer) Finish(epoch uint64) ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	w.sealTable()
	footerOff := uint64(len(w.buf))
	var u32 [4]byte
	var u64 [8]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(w.tables)))
	w.buf = append(w.buf, u32[:]...)
	for _, t := range w.tables {
		w.buf = append(w.buf, byte(len(t.name)))
		w.buf = append(w.buf, t.name...)
		binary.BigEndian.PutUint64(u64[:], uint64(t.rows))
		w.buf = append(w.buf, u64[:]...)
		binary.BigEndian.PutUint64(u64[:], t.dirOffAt)
		w.buf = append(w.buf, u64[:]...)
		binary.BigEndian.PutUint32(u32[:], uint32(len(t.first)))
		w.buf = append(w.buf, u32[:]...)
		w.buf = append(w.buf, t.first...)
		binary.BigEndian.PutUint32(u32[:], uint32(len(t.last)))
		w.buf = append(w.buf, u32[:]...)
		w.buf = append(w.buf, t.last...)
	}
	binary.BigEndian.PutUint64(u64[:], epoch)
	w.buf = append(w.buf, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], footerOff)
	w.buf = append(w.buf, u64[:]...)
	binary.BigEndian.PutUint32(u32[:], crc32.Checksum(w.buf, castagnoli))
	w.buf = append(w.buf, u32[:]...)
	w.buf = append(w.buf, tailMagic...)
	out := w.buf
	w.buf = nil
	w.err = fmt.Errorf("segment: writer already finished")
	return out, nil
}
