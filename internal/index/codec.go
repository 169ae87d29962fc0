// Package index implements the four TReX index tables over the storage
// engine, with order-preserving key codecs and the iterators the
// retrieval algorithms are built on:
//
//	Elements(SID, docid, endpos, length)         — one row per element
//	PostingLists(token, docid, offset, entry)    — fragmented inverted lists
//	RPLs(token, ir, SID, docid, endpos, entry)   — score-descending lists
//	ERPLs(token, SID, docid, endpos, ir, entry)  — position-ordered lists
//
// Underlined fields of the paper's schemas become big-endian composite
// keys, so the storage engine's key order reproduces each table's
// clustered index order. "ir" is the order-inverted relevance score, which
// makes descending-score order ascend in key space.
package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Pos is a term position: a (document, byte offset) pair. Positions order
// lexicographically, documents first.
type Pos struct {
	Doc uint32
	Off uint32
}

// MaxPos is the paper's m-pos: a sentinel greater than any real position,
// appended to the end of every posting list.
var MaxPos = Pos{Doc: math.MaxUint32, Off: math.MaxUint32}

// Less orders positions by (Doc, Off).
func (p Pos) Less(q Pos) bool {
	if p.Doc != q.Doc {
		return p.Doc < q.Doc
	}
	return p.Off < q.Off
}

// IsMax reports whether p is the m-pos sentinel.
func (p Pos) IsMax() bool { return p == MaxPos }

func (p Pos) String() string {
	if p.IsMax() {
		return "m-pos"
	}
	return fmt.Sprintf("(%d,%d)", p.Doc, p.Off)
}

// Element is one row of the Elements table. An element is identified by
// (Doc, End); Length recovers its start position.
type Element struct {
	SID    uint32
	Doc    uint32
	End    uint32
	Length uint32
}

// Start returns the byte offset of the element's start tag.
func (e Element) Start() uint32 { return e.End - e.Length }

// EndPos returns the element's identifying position (Doc, End).
func (e Element) EndPos() Pos { return Pos{Doc: e.Doc, Off: e.End} }

// Contains reports whether position p falls strictly inside the element
// (the paper's start(e) < pos < end(e) containment test).
func (e Element) Contains(p Pos) bool {
	return p.Doc == e.Doc && e.Start() < p.Off && p.Off < e.End
}

// IsDummy reports whether e is the "no more elements" marker the
// ERA iterator returns at extent end (end position m-pos, length zero).
func (e Element) IsDummy() bool { return e.Doc == MaxPos.Doc && e.End == MaxPos.Off }

// DummyElement is the iterator-exhausted marker.
func DummyElement() Element {
	return Element{SID: 0, Doc: MaxPos.Doc, End: MaxPos.Off, Length: 0}
}

// --- Elements table codec: key = SID.Doc.End, value = Length ---

func elementsKey(sid, doc, end uint32) []byte {
	var k [12]byte
	binary.BigEndian.PutUint32(k[0:4], sid)
	binary.BigEndian.PutUint32(k[4:8], doc)
	binary.BigEndian.PutUint32(k[8:12], end)
	return k[:]
}

func decodeElementsKey(k []byte) (sid, doc, end uint32, err error) {
	if len(k) != 12 {
		return 0, 0, 0, fmt.Errorf("index: bad Elements key length %d", len(k))
	}
	return binary.BigEndian.Uint32(k[0:4]),
		binary.BigEndian.Uint32(k[4:8]),
		binary.BigEndian.Uint32(k[8:12]), nil
}

func elementsValue(length uint32) []byte {
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], length)
	return v[:]
}

func decodeElementsValue(v []byte) (uint32, error) {
	if len(v) != 4 {
		return 0, fmt.Errorf("index: bad Elements value length %d", len(v))
	}
	return binary.BigEndian.Uint32(v), nil
}

// --- term prefix shared by PostingLists, RPLs, ERPLs keys ---

// termPrefix encodes the token with a 0x00 terminator. Tokens are
// lowercase alphanumeric (see xmlscan.Tokenize), so the terminator cannot
// collide, and the encoding is prefix-free and order-preserving.
func termPrefix(term string) []byte { return termKey(term, 0) }

// termKey is termPrefix with capacity for a key tail of n more bytes.
func termKey(term string, n int) []byte {
	out := make([]byte, 0, len(term)+1+n)
	out = append(out, term...)
	out = append(out, 0)
	return out
}

// --- PostingLists codec: key = token.doc.off (first position of the
// fragment), value = packed positions ---

func postingKey(term string, first Pos) []byte {
	var tail [8]byte
	k := termKey(term, len(tail))
	binary.BigEndian.PutUint32(tail[0:4], first.Doc)
	binary.BigEndian.PutUint32(tail[4:8], first.Off)
	return append(k, tail[:]...)
}

// maxPostingsPerFragment bounds positions per fragment. The worst case —
// every body entry a document switch with 5-byte varints, 10 bytes an
// entry like the 7 checkpoints — is 2,563 bytes, under
// storage.MaxValueSize.
const maxPostingsPerFragment = 256

// postingFormatSkip is the format byte every posting fragment starts with.
const postingFormatSkip = 0x03

// A postingFormatSkip fragment of n positions:
//
//	[0]    0x03
//	[1:3]  n, big-endian
//	[3:]   c = (n-1)/32 checkpoints of 10 bytes: entries 32, 64, ... as
//	       doc (4) · off (4) · body offset where the next entry starts (2)
//	body   the other n-c entries, positions ascending:
//	       entry 0:         uvarint(doc) uvarint(off)
//	       same document:   uvarint(gap<<1)
//	       document switch: uvarint(docDelta<<1|1) uvarint(off)
//
// Entry 0 is always a switch, so it carries no flag bit: shifting an
// absolute document id would cost a byte in every fragment whose first
// document is 8,192 or later. Every 32nd entry is stored
// in the checkpoint table and nowhere else, absolute, with the place in
// the body where decoding resumes after it, so a reader can start at any
// checkpoint and a rank query walks at most checkpointInterval entries.
const (
	checkpointInterval = 32
	checkpointSize     = 10
	postingHeaderSize  = 3
)

// postingValue encodes sorted positions as a postingFormatSkip fragment.
// Typical English-text gaps fit in one or two bytes — the compression
// that keeps the PostingLists table (the dominant base-index cost,
// Section 5.1) manageable.
func postingValue(positions []Pos) []byte {
	n := len(positions)
	body := postingHeaderSize + (n-1)/checkpointInterval*checkpointSize
	out := make([]byte, body, body+2*n+8)
	out[0] = postingFormatSkip
	binary.BigEndian.PutUint16(out[1:3], uint16(n))
	var prev Pos
	for i, p := range positions {
		switch {
		case i > 0 && i%checkpointInterval == 0:
			c := out[postingHeaderSize+(i/checkpointInterval-1)*checkpointSize:]
			binary.BigEndian.PutUint32(c[0:4], p.Doc)
			binary.BigEndian.PutUint32(c[4:8], p.Off)
			binary.BigEndian.PutUint16(c[8:10], uint16(len(out)-body))
		case i == 0:
			out = binary.AppendUvarint(out, uint64(p.Doc))
			out = binary.AppendUvarint(out, uint64(p.Off))
		case p.Doc != prev.Doc:
			out = binary.AppendUvarint(out, uint64(p.Doc-prev.Doc)<<1|1)
			out = binary.AppendUvarint(out, uint64(p.Off))
		default:
			out = binary.AppendUvarint(out, uint64(p.Off-prev.Off)<<1)
		}
		prev = p
	}
	return out
}

// fragReader steps through one postingFormatSkip fragment in place. It is
// the only decoder of the format: the sequential decode, the posting
// iterator and the span probe all read entries through next.
type fragReader struct {
	ckpt []byte // checkpoint table
	body []byte // the entries not in the table
	n    int    // entries in the fragment
	i    int    // entries consumed
	off  int    // body offset where decoding continues
	prev Pos    // entry i-1 (zero before the first)
}

// errOldFormat reports a stored value whose format byte is not the one
// this version writes: a row of a database built by an earlier version
// (or a corrupt one), which has to be rebuilt, not read.
func errOldFormat(what string, tag, want byte) error {
	return fmt.Errorf("index: %s has format byte 0x%02x, not 0x%02x: the database predates the current format and must be rebuilt", what, tag, want)
}

// openFragment checks the header and checkpoint table of a
// postingFormatSkip value: the table must fit, and its positions and body
// offsets must ascend inside the body, so jump can trust any of them.
func openFragment(v []byte) (fragReader, error) {
	if len(v) > 0 && v[0] != postingFormatSkip {
		return fragReader{}, errOldFormat("posting fragment", v[0], postingFormatSkip)
	}
	if len(v) < postingHeaderSize {
		return fragReader{}, fmt.Errorf("index: short posting value")
	}
	n := int(binary.BigEndian.Uint16(v[1:3]))
	c := (n - 1) / checkpointInterval
	body := postingHeaderSize + c*checkpointSize
	if len(v)-body < n-c {
		return fragReader{}, fmt.Errorf("index: posting value of %d bytes cannot hold %d entries", len(v), n)
	}
	r := fragReader{ckpt: v[postingHeaderSize:body], body: v[body:], n: n}
	var prev Pos
	prevOff := 0
	for j := 0; j < c; j++ {
		p, off := r.checkpoint(j)
		if p.Less(prev) || off <= prevOff || off > len(r.body) {
			return fragReader{}, fmt.Errorf("index: posting checkpoint %d out of order", j)
		}
		prev, prevOff = p, off
	}
	return r, nil
}

// checkpoint returns checkpoint c: entry (c+1)*32 and the body offset
// where the entry after it starts.
func (r *fragReader) checkpoint(c int) (Pos, int) {
	b := r.ckpt[c*checkpointSize:]
	return Pos{Doc: binary.BigEndian.Uint32(b[0:4]), Off: binary.BigEndian.Uint32(b[4:8])},
		int(binary.BigEndian.Uint16(b[8:10]))
}

// next decodes entry i. Callers check r.i < r.n first.
func (r *fragReader) next() (Pos, error) {
	if r.i > 0 && r.i%checkpointInterval == 0 {
		p, off := r.checkpoint(r.i/checkpointInterval - 1)
		if off != r.off || p.Less(r.prev) {
			return Pos{}, fmt.Errorf("index: posting checkpoint disagrees with the entries before entry %d", r.i)
		}
		r.prev = p
		r.i++
		return p, nil
	}
	x, k := binary.Uvarint(r.body[r.off:])
	if k <= 0 {
		return Pos{}, fmt.Errorf("index: truncated posting entry %d", r.i)
	}
	r.off += k
	delta, isSwitch := x>>1, x&1 == 1
	if r.i == 0 {
		delta, isSwitch = x, true
	}
	if !isSwitch {
		off := uint64(r.prev.Off) + delta
		if off > math.MaxUint32 {
			return Pos{}, fmt.Errorf("index: bad same-document posting entry %d", r.i)
		}
		r.prev.Off = uint32(off)
	} else {
		doc := uint64(r.prev.Doc) + delta
		off, k := binary.Uvarint(r.body[r.off:])
		if k <= 0 {
			return Pos{}, fmt.Errorf("index: truncated posting offset at entry %d", r.i)
		}
		if (delta == 0 && r.i > 0) || doc > math.MaxUint32 || off > math.MaxUint32 {
			return Pos{}, fmt.Errorf("index: bad document-switch posting entry %d", r.i)
		}
		r.off += k
		r.prev = Pos{Doc: uint32(doc), Off: uint32(off)}
	}
	r.i++
	return r.prev, nil
}

// jump moves past the last checkpointed entry whose position is below p,
// when that entry is still ahead, and returns how many entries it skipped
// (all of them below p).
func (r *fragReader) jump(p Pos) int {
	lo, hi := 0, len(r.ckpt)/checkpointSize
	for lo < hi {
		mid := (lo + hi) / 2
		if q, _ := r.checkpoint(mid); q.Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo*checkpointInterval + 1
	if lo == 0 || i <= r.i {
		return 0
	}
	skipped := i - r.i
	r.prev, r.off = r.checkpoint(lo - 1)
	r.i = i
	return skipped
}

// decodePostingInto appends the positions of a fragment to dst. It reads
// every entry, so beyond what openFragment and next reject it requires
// that no byte follows the last one.
func decodePostingInto(dst []Pos, v []byte) ([]Pos, error) {
	r, err := openFragment(v)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, r.n)
	for r.i < r.n {
		p, err := r.next()
		if err != nil {
			return nil, err
		}
		dst = append(dst, p)
	}
	if r.off != len(r.body) {
		return nil, fmt.Errorf("index: %d trailing bytes in posting value", len(r.body)-r.off)
	}
	return dst, nil
}

// --- score inversion for RPL keys ---

// invertScore maps a non-negative score to a big-endian-sortable value
// whose ascending order is descending score order (the "ir" field).
func invertScore(score float64) uint64 {
	if score < 0 {
		score = 0
	}
	return ^math.Float64bits(score)
}

// uninvertScore recovers the score from its inverted form.
func uninvertScore(ir uint64) float64 {
	return math.Float64frombits(^ir)
}

// --- RPLs key: token.ir.sid.doc.end of a block's first entry ---

// RPLEntry is one scored element in a relevance posting list.
type RPLEntry struct {
	Score  float64
	SID    uint32
	Doc    uint32
	End    uint32
	Length uint32
}

// Element converts the entry to its Elements-table form.
func (e RPLEntry) Element() Element {
	return Element{SID: e.SID, Doc: e.Doc, End: e.End, Length: e.Length}
}

// docEnd packs the entry's (doc, end) identity into one integer that
// orders as CompareDocEnd does.
func (e *RPLEntry) docEnd() uint64 { return uint64(e.Doc)<<32 | uint64(e.End) }

func rplKey(term string, e RPLEntry) []byte {
	k := termKey(term, 20)
	var tail [20]byte
	binary.BigEndian.PutUint64(tail[0:8], invertScore(e.Score))
	binary.BigEndian.PutUint32(tail[8:12], e.SID)
	binary.BigEndian.PutUint32(tail[12:16], e.Doc)
	binary.BigEndian.PutUint32(tail[16:20], e.End)
	return append(k, tail[:]...)
}

// --- ERPLs key: token.sid.doc.end of a block's first entry ---

func erplKey(term string, e RPLEntry) []byte {
	k := termKey(term, 12)
	var tail [12]byte
	binary.BigEndian.PutUint32(tail[0:4], e.SID)
	binary.BigEndian.PutUint32(tail[4:8], e.Doc)
	binary.BigEndian.PutUint32(tail[8:12], e.End)
	return append(k, tail[:]...)
}

func erplSIDPrefix(term string, sid uint32) []byte {
	return appendERPLSIDPrefix(make([]byte, 0, len(term)+5), term, sid)
}

// appendERPLSIDPrefix appends the len(term)+5 bytes of erplSIDPrefix to dst.
func appendERPLSIDPrefix(dst []byte, term string, sid uint32) []byte {
	dst = append(append(dst, term...), 0)
	return binary.BigEndian.AppendUint32(dst, sid)
}
