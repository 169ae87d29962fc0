package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Reader serves a segment image in place. Every offset in the skip
// directories is validated once at open — key ordering included — so the
// hot-path accessors (Get, Seek, Next, Key, Value) do no bounds or order
// checks and never allocate: keys and values are subslices of the
// underlying mapping.
//
// OpenBytes rejects corrupt input with an error; it never panics and
// never reads outside the given slice, a contract the fuzz target
// (FuzzReader) exercises.
type Reader struct {
	data   []byte
	epoch  uint64
	tables []Table
}

// Table is one named sorted key/value table inside a segment.
type Table struct {
	r    *Reader
	name string
	dir  []byte // rows * dirEntrySize directory bytes
	rows int
	// first/last are the key-range fences from the footer; Seek and Get
	// reject out-of-range probes without touching the directory.
	first []byte
	last  []byte
}

// byteReader walks the footer with bounds checks.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		return nil, fmt.Errorf("segment: truncated footer")
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

func (r *byteReader) u8() (byte, error) {
	v, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func (r *byteReader) u32() (uint32, error) {
	v, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(v), nil
}

func (r *byteReader) u64() (uint64, error) {
	v, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(v), nil
}

// OpenBytes validates a segment image and returns a reader over it. The
// slice is retained; it must stay immutable (and mapped) for the
// reader's lifetime.
func OpenBytes(data []byte) (*Reader, error) {
	if len(data) < len(headMagic)+tailSize {
		return nil, fmt.Errorf("segment: image too small (%d bytes)", len(data))
	}
	if string(data[:len(headMagic)]) != headMagic {
		return nil, fmt.Errorf("segment: bad magic")
	}
	if string(data[len(data)-8:]) != tailMagic {
		return nil, fmt.Errorf("segment: bad tail magic")
	}
	crcOff := len(data) - 12
	want := binary.BigEndian.Uint32(data[crcOff : crcOff+4])
	if got := crc32.Checksum(data[:crcOff], castagnoli); got != want {
		return nil, fmt.Errorf("segment: checksum mismatch (got %08x want %08x)", got, want)
	}
	footerOff := binary.BigEndian.Uint64(data[len(data)-tailSize : len(data)-12])
	if footerOff < uint64(len(headMagic)) || footerOff > uint64(crcOff-8) {
		return nil, fmt.Errorf("segment: footer offset %d out of range", footerOff)
	}

	r := &Reader{data: data}
	fr := &byteReader{b: data[footerOff : len(data)-tailSize]}
	count, err := fr.u32()
	if err != nil {
		return nil, err
	}
	if count > uint32(len(fr.b)) { // each table costs >= 1 footer byte
		return nil, fmt.Errorf("segment: absurd table count %d", count)
	}
	for i := uint32(0); i < count; i++ {
		nameLen, err := fr.u8()
		if err != nil {
			return nil, err
		}
		name, err := fr.take(int(nameLen))
		if err != nil {
			return nil, err
		}
		rows, err := fr.u64()
		if err != nil {
			return nil, err
		}
		dirOff, err := fr.u64()
		if err != nil {
			return nil, err
		}
		firstLen, err := fr.u32()
		if err != nil {
			return nil, err
		}
		first, err := fr.take(int(firstLen))
		if err != nil {
			return nil, err
		}
		lastLen, err := fr.u32()
		if err != nil {
			return nil, err
		}
		last, err := fr.take(int(lastLen))
		if err != nil {
			return nil, err
		}
		if rows > (footerOff-uint64(len(headMagic)))/dirEntrySize {
			return nil, fmt.Errorf("segment: table %q row count %d exceeds image", name, rows)
		}
		dirEnd := dirOff + rows*dirEntrySize
		if dirOff < uint64(len(headMagic)) || dirEnd < dirOff || dirEnd > footerOff {
			return nil, fmt.Errorf("segment: table %q directory out of range", name)
		}
		t := Table{
			r:     r,
			name:  string(name),
			dir:   data[dirOff:dirEnd],
			rows:  int(rows),
			first: first,
			last:  last,
		}
		if err := t.validate(footerOff); err != nil {
			return nil, err
		}
		r.tables = append(r.tables, t)
	}
	epoch, err := fr.u64()
	if err != nil {
		return nil, err
	}
	if fr.off != len(fr.b) {
		return nil, fmt.Errorf("segment: %d trailing footer bytes", len(fr.b)-fr.off)
	}
	r.epoch = epoch
	return r, nil
}

// validate checks every directory entry's bounds and the strict key
// ordering once, so the access path can skip both.
func (t *Table) validate(footerOff uint64) error {
	var prev []byte
	for i := 0; i < t.rows; i++ {
		e := t.dir[i*dirEntrySize:]
		off := binary.BigEndian.Uint64(e[0:8])
		klen := uint64(binary.BigEndian.Uint32(e[8:12]))
		vlen := uint64(binary.BigEndian.Uint32(e[12:16]))
		end := off + klen + vlen
		if off < uint64(len(headMagic)) || end < off || end > footerOff {
			return fmt.Errorf("segment: table %q row %d out of range", t.name, i)
		}
		key := t.r.data[off : off+klen]
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("segment: table %q keys out of order at row %d", t.name, i)
		}
		prev = key
	}
	if t.rows > 0 {
		if !bytes.Equal(t.key(0), t.first) || !bytes.Equal(t.key(t.rows-1), t.last) {
			return fmt.Errorf("segment: table %q fence mismatch", t.name)
		}
	}
	return nil
}

// Epoch returns the commit epoch the segment was stamped with.
func (r *Reader) Epoch() uint64 { return r.epoch }

// Size returns the image size in bytes.
func (r *Reader) Size() int { return len(r.data) }

// Table returns the named table, or nil when the segment has none.
func (r *Reader) Table(name string) *Table {
	for i := range r.tables {
		if r.tables[i].name == name {
			return &r.tables[i]
		}
	}
	return nil
}

// Rows returns the table's row count.
func (t *Table) Rows() int { return t.rows }

// key returns row i's key as a subslice of the mapping.
func (t *Table) key(i int) []byte {
	e := t.dir[i*dirEntrySize:]
	off := binary.BigEndian.Uint64(e[0:8])
	klen := binary.BigEndian.Uint32(e[8:12])
	return t.r.data[off : off+uint64(klen)]
}

// value returns row i's value as a subslice of the mapping.
func (t *Table) value(i int) []byte {
	e := t.dir[i*dirEntrySize:]
	off := binary.BigEndian.Uint64(e[0:8])
	klen := binary.BigEndian.Uint32(e[8:12])
	vlen := binary.BigEndian.Uint32(e[12:16])
	vo := off + uint64(klen)
	return t.r.data[vo : vo+uint64(vlen)]
}

// rowBytes returns row i's key+value length, for read accounting.
func (t *Table) rowBytes(i int) uint64 {
	e := t.dir[i*dirEntrySize:]
	return uint64(binary.BigEndian.Uint32(e[8:12])) + uint64(binary.BigEndian.Uint32(e[12:16]))
}

// search returns the index of the first row with key >= target, using
// the key-range fences to reject out-of-range probes in O(1).
func (t *Table) search(target []byte) int {
	if t.rows == 0 || bytes.Compare(t.last, target) < 0 {
		return t.rows
	}
	if bytes.Compare(target, t.first) <= 0 {
		return 0
	}
	lo, hi := 0, t.rows
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(t.key(mid), target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key, as a subslice of the mapping.
func (t *Table) Get(key []byte) ([]byte, bool) {
	i := t.search(key)
	if i >= t.rows || !bytes.Equal(t.key(i), key) {
		return nil, false
	}
	return t.value(i), true
}

// Cursor returns a new unpositioned cursor over the table. counters may
// be nil; when set, every row the cursor lands on is accounted to it.
func (t *Table) Cursor() *Cursor { return &Cursor{t: t, i: -1} }

// ioCounters is the slice of Store counters a cursor feeds (kept
// separate so a bare Reader — tests, fuzzing — works without a Store).
type ioCounters struct {
	rows  atomic.Uint64
	bytes atomic.Uint64
}

// Cursor iterates a table in key order, returning subslices of the
// mapping. Positioning calls report whether the cursor landed on a row;
// Key/Value are valid only after a true report. The cursor allocates
// only at creation — Seek/Next/SeekPrefix/NextPrefix are alloc-free.
type Cursor struct {
	t   *Table
	i   int
	io  *ioCounters
	pos bool
}

// land accounts the row under the cursor and marks it positioned.
func (c *Cursor) land() bool {
	c.pos = true
	if c.io != nil {
		c.io.rows.Add(1)
		c.io.bytes.Add(c.t.rowBytes(c.i))
	}
	return true
}

// First positions at the smallest key.
func (c *Cursor) First() (bool, error) {
	c.i = 0
	if c.i >= c.t.rows {
		c.pos = false
		return false, nil
	}
	return c.land(), nil
}

// Seek positions at the smallest key >= key.
func (c *Cursor) Seek(key []byte) (bool, error) {
	c.i = c.t.search(key)
	if c.i >= c.t.rows {
		c.pos = false
		return false, nil
	}
	return c.land(), nil
}

// Next advances to the next row.
func (c *Cursor) Next() (bool, error) {
	if !c.pos {
		return false, nil
	}
	c.i++
	if c.i >= c.t.rows {
		c.pos = false
		return false, nil
	}
	return c.land(), nil
}

// SeekPrefix positions at the first key carrying prefix, mirroring the
// storage cursor's contract.
func (c *Cursor) SeekPrefix(prefix []byte) (bool, error) {
	ok, _ := c.Seek(prefix)
	if !ok {
		return false, nil
	}
	if !bytes.HasPrefix(c.t.key(c.i), prefix) {
		c.pos = false
		return false, nil
	}
	return true, nil
}

// NextPrefix advances within keys sharing prefix, invalidating the
// cursor once the prefix is left.
func (c *Cursor) NextPrefix(prefix []byte) (bool, error) {
	ok, _ := c.Next()
	if !ok {
		return false, nil
	}
	if !bytes.HasPrefix(c.t.key(c.i), prefix) {
		c.pos = false
		return false, nil
	}
	return true, nil
}

// Key returns the current key (a mapping subslice, valid until the
// segment's generation is retired).
func (c *Cursor) Key() []byte {
	if !c.pos {
		return nil
	}
	return c.t.key(c.i)
}

// Value returns the current value under the same rules as Key.
func (c *Cursor) Value() []byte {
	if !c.pos {
		return nil
	}
	return c.t.value(c.i)
}
