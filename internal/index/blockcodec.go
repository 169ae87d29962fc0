package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Block-encoded RPL/ERPL rows: the one row format of both list tables.
// A row packs a run of entries, delta-varint encoded, behind a small
// header carrying the entry count and a score/position bound that lets
// readers reason about a whole block without decoding it.
//
// Layouts (all varints are unsigned LEB128, multi-byte integers
// big-endian):
//
//	RPL block value:
//	  0x02 | count uvarint | maxScoreBits 8B
//	  per entry: irDelta uvarint | sid uvarint | doc uvarint |
//	             end uvarint | length uvarint
//	Entries are in key order — (ir, sid, doc, end) ascending, i.e. score
//	descending — and irDelta is relative to invertScore(maxScore), so the
//	first delta is 0 and deltas are exact integer arithmetic (scores
//	round-trip bit-for-bit). RPL blocks may mix sids.
//
//	ERPL block value:
//	  0x02 | count uvarint | sid uvarint | maxDoc uvarint | maxEnd uvarint
//	  first entry:  doc uvarint | end uvarint | scoreBits 8B | length uvarint
//	  later entries: docDelta uvarint | (endDelta if docDelta==0, else
//	                 absolute end) uvarint | scoreBits 8B | length uvarint
//	ERPL blocks are sealed at sid boundaries, so a block holds a single
//	sid: erplSIDPrefix seeks and key-based sid extraction stay valid, and
//	(maxDoc, maxEnd) with the key's first entry give the block's position
//	range. Scores are stored raw: position order makes score deltas noise.
//
// The block key is rplKey / erplKey of the block's first entry, so key
// order clusters blocks where their entries sit. A value that does not
// start with listFormatBlock is rejected (errOldFormat).
const listFormatBlock = 0x02

// BlockTargetEntries is how many entries the encoder packs per block
// before sealing. 128 keeps worst-case encoded blocks well under the
// storage value limit while amortizing the key to a fraction of a byte
// per entry.
const BlockTargetEntries = 128

// blockSoftMaxBytes seals a block early if its encoded value would grow
// past this, keeping pathological-delta blocks under MaxValueSize.
const blockSoftMaxBytes = 2048

// ListRow is one encoded storage row of a materialized list, with the
// per-entry byte attribution the catalog needs: EntryBytes[i] is entry
// i's share of len(Key)+len(Value) (header and key bytes are attributed
// to the first entry), so per-(term, sid) sizes sum exactly to the
// encoded footprint. Entries is the row's run of the slice handed to the
// encoder, not a copy.
type ListRow struct {
	Key        []byte
	Value      []byte
	Entries    []RPLEntry
	EntryBytes []int
}

// compareRPLEntries orders entries as the RPLs key does: (ir, sid, doc,
// end) ascending, i.e. score descending.
func compareRPLEntries(a, b RPLEntry) int {
	if c := cmp.Compare(invertScore(a.Score), invertScore(b.Score)); c != 0 {
		return c
	}
	return compareERPLEntries(a, b)
}

// compareERPLEntries orders entries as the ERPLs key does: (sid, doc, end).
func compareERPLEntries(a, b RPLEntry) int {
	if c := cmp.Compare(a.SID, b.SID); c != 0 {
		return c
	}
	return CompareDocEnd(a.Doc, a.End, b.Doc, b.End)
}

// SortRPLEntriesScoreOrder sorts entries into RPL key order (score
// descending with (sid, doc, end) tie-break).
func SortRPLEntriesScoreOrder(entries []RPLEntry) {
	slices.SortFunc(entries, compareRPLEntries)
}

// SortRPLEntriesPositionOrder sorts entries into ERPL key order
// ((sid, doc, end) ascending).
func SortRPLEntriesPositionOrder(entries []RPLEntry) {
	slices.SortFunc(entries, compareERPLEntries)
}

// RadixScoreOrder writes entries, which should be in ERPL key order, to dst
// in RPL key order. It is a stable LSD radix sort on the inverted score, one
// byte per pass, so entries of equal score keep their (sid, doc, end) order:
// score descending, then (sid, doc, end), without a comparison. A byte every
// key shares costs no pass. The passes alternate between dst and scratch,
// starting on whichever makes the last one land in dst; both must hold
// len(entries) entries, and entries is not modified. Given entries in any
// other order, dst is ordered by score alone and EncodeRPLBlocks sorts it.
func RadixScoreOrder(dst, scratch, entries []RPLEntry) {
	n := len(entries)
	if n == 0 {
		return
	}
	dst, scratch = dst[:n], scratch[:n]
	var counts [8][256]int
	for i := range entries {
		k := invertScore(entries[i].Score)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	first := invertScore(entries[0].Score)
	passes := 0
	for d := range counts {
		if counts[d][byte(first>>(8*d))] != n {
			passes++
		}
	}
	if passes == 0 {
		copy(dst, entries)
		return
	}
	bufs := [2][]RPLEntry{dst, scratch}
	if passes%2 == 0 {
		bufs = [2][]RPLEntry{scratch, dst}
	}
	src, pass := entries, 0
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(first>>shift)] == n {
			continue
		}
		for i, sum := 0, 0; i < len(c); i++ {
			c[i], sum = sum, sum+c[i]
		}
		to := bufs[pass%2]
		for i := range src {
			b := byte(invertScore(src[i].Score) >> shift)
			to[c[b]] = src[i]
			c[b]++
		}
		src, pass = to, pass+1
	}
}

// EncodeRPLBlocks encodes a term's entries into block rows. Entries
// already in score order, as RadixScoreOrder writes them, cost one O(n)
// check; any others are sorted in place first. The returned rows carry
// ascending, non-overlapping keys suitable for the bulk loader.
func EncodeRPLBlocks(term string, entries []RPLEntry) []ListRow {
	if len(entries) == 0 {
		return nil
	}
	if !slices.IsSortedFunc(entries, compareRPLEntries) {
		SortRPLEntriesScoreOrder(entries)
	}
	rows := make([]ListRow, 0, len(entries)/BlockTargetEntries+1)
	payload := make([]byte, 0, 8*BlockTargetEntries)
	shares := make([]int, len(entries)) // the rows' EntryBytes, in order
	for len(entries) > 0 {
		maxIR := invertScore(entries[0].Score)
		payload = payload[:0]
		sizes := shares[:0:len(shares)]
		n := 0
		for n < len(entries) && n < BlockTargetEntries && len(payload) < blockSoftMaxBytes {
			e := entries[n]
			before := len(payload)
			payload = binary.AppendUvarint(payload, invertScore(e.Score)-maxIR)
			payload = binary.AppendUvarint(payload, uint64(e.SID))
			payload = binary.AppendUvarint(payload, uint64(e.Doc))
			payload = binary.AppendUvarint(payload, uint64(e.End))
			payload = binary.AppendUvarint(payload, uint64(e.Length))
			sizes = append(sizes, len(payload)-before)
			n++
		}
		key := rplKey(term, entries[0])
		val := make([]byte, 0, 10+len(payload))
		val = append(val, listFormatBlock)
		val = binary.AppendUvarint(val, uint64(n))
		val = binary.BigEndian.AppendUint64(val, math.Float64bits(entries[0].Score))
		header := len(key) + len(val)
		val = append(val, payload...)
		sizes[0] += header
		rows = append(rows, ListRow{
			Key:        key,
			Value:      val,
			Entries:    entries[:n:n],
			EntryBytes: sizes[:n:n],
		})
		entries, shares = entries[n:], shares[n:]
	}
	return rows
}

// EncodeERPLBlocks encodes a term's entries into ERPL block rows and
// seals blocks at sid boundaries, so every block holds a single sid.
// Entries already in position order cost one O(n) check; any others are
// sorted in place first.
func EncodeERPLBlocks(term string, entries []RPLEntry) []ListRow {
	if len(entries) == 0 {
		return nil
	}
	if !slices.IsSortedFunc(entries, compareERPLEntries) {
		SortRPLEntriesPositionOrder(entries)
	}
	rows := make([]ListRow, 0, len(entries)/BlockTargetEntries+1)
	payload := make([]byte, 0, 16*BlockTargetEntries)
	shares := make([]int, len(entries)) // the rows' EntryBytes, in order
	for len(entries) > 0 {
		sid := entries[0].SID
		payload = payload[:0]
		sizes := shares[:0:len(shares)]
		n := 0
		var prev RPLEntry
		for n < len(entries) && n < BlockTargetEntries && len(payload) < blockSoftMaxBytes {
			e := entries[n]
			if e.SID != sid {
				break
			}
			before := len(payload)
			if n == 0 {
				payload = binary.AppendUvarint(payload, uint64(e.Doc))
				payload = binary.AppendUvarint(payload, uint64(e.End))
			} else if e.Doc == prev.Doc {
				payload = binary.AppendUvarint(payload, 0)
				payload = binary.AppendUvarint(payload, uint64(e.End-prev.End))
			} else {
				payload = binary.AppendUvarint(payload, uint64(e.Doc-prev.Doc))
				payload = binary.AppendUvarint(payload, uint64(e.End))
			}
			payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(e.Score))
			payload = binary.AppendUvarint(payload, uint64(e.Length))
			sizes = append(sizes, len(payload)-before)
			prev = e
			n++
		}
		last := entries[n-1]
		key := erplKey(term, entries[0])
		val := make([]byte, 0, 12+len(payload))
		val = append(val, listFormatBlock)
		val = binary.AppendUvarint(val, uint64(n))
		val = binary.AppendUvarint(val, uint64(sid))
		val = binary.AppendUvarint(val, uint64(last.Doc))
		val = binary.AppendUvarint(val, uint64(last.End))
		header := len(key) + len(val)
		val = append(val, payload...)
		sizes[0] += header
		rows = append(rows, ListRow{
			Key:        key,
			Value:      val,
			Entries:    entries[:n:n],
			EntryBytes: sizes[:n:n],
		})
		entries, shares = entries[n:], shares[n:]
	}
	return rows
}

// beUint32 / beUint64 are shorthand for the big-endian field reads the
// key-tail comparators perform.
func beUint32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }
func beUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// uvReader is a bounds-checked varint reader; decoders built on it fail
// with an error instead of panicking on truncated or corrupt input.
type uvReader struct {
	b   []byte
	bad bool
}

func (r *uvReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *uvReader) uint64() uint64 {
	if len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v
}

// checkBlock rejects a list row that is not a block: empty, or written in
// an earlier version's row-per-entry format.
func checkBlock(v []byte, list string) error {
	if len(v) == 0 {
		return fmt.Errorf("index: empty %s row", list)
	}
	if v[0] != listFormatBlock {
		return errOldFormat(list+" row", v[0], listFormatBlock)
	}
	return nil
}

// blockCount validates a decoded count against the bytes that remain,
// assuming each entry takes at least minEntryBytes, so corrupt headers
// cannot trigger huge allocations.
func (r *uvReader) blockCount(minEntryBytes int) (int, error) {
	c := r.uvarint()
	if r.bad {
		return 0, fmt.Errorf("index: truncated block header")
	}
	if c == 0 || c > uint64(len(r.b)) {
		return 0, fmt.Errorf("index: implausible block count %d (%d bytes left)", c, len(r.b))
	}
	if int(c)*minEntryBytes > len(r.b)+minEntryBytes+16 {
		return 0, fmt.Errorf("index: block count %d exceeds payload", c)
	}
	return int(c), nil
}

// decodeRPLBlock decodes an RPL block value (including the leading
// format byte) into its entries.
func decodeRPLBlock(v []byte) ([]RPLEntry, error) {
	if err := checkBlock(v, "RPL"); err != nil {
		return nil, err
	}
	r := &uvReader{b: v[1:]}
	count, err := r.blockCount(5)
	if err != nil {
		return nil, err
	}
	maxIR := invertScore(math.Float64frombits(r.uint64()))
	out := make([]RPLEntry, 0, count)
	for i := 0; i < count; i++ {
		irDelta := r.uvarint()
		sid := r.uvarint()
		doc := r.uvarint()
		end := r.uvarint()
		length := r.uvarint()
		if r.bad {
			return nil, fmt.Errorf("index: truncated RPL block at entry %d", i)
		}
		out = append(out, RPLEntry{
			Score:  uninvertScore(maxIR + irDelta),
			SID:    uint32(sid),
			Doc:    uint32(doc),
			End:    uint32(end),
			Length: uint32(length),
		})
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("index: %d trailing bytes in RPL block", len(r.b))
	}
	return out, nil
}

// rplRowCount reads an RPL block's entry count without decoding the
// entries.
func rplRowCount(v []byte) (int, error) {
	if err := checkBlock(v, "RPL"); err != nil {
		return 0, err
	}
	r := &uvReader{b: v[1:]}
	return r.blockCount(5)
}

// decodeERPLBlockInto decodes an ERPL block value (including the leading
// format byte), appending its entries to dst: an iterator hands in the
// buffer it owns, so a block costs no allocation once the buffer has grown
// to block size.
func decodeERPLBlockInto(dst []RPLEntry, v []byte) ([]RPLEntry, error) {
	if err := checkBlock(v, "ERPL"); err != nil {
		return dst, err
	}
	r := &uvReader{b: v[1:]}
	count, err := r.blockCount(11)
	if err != nil {
		return dst, err
	}
	sid := r.uvarint()
	r.uvarint() // maxDoc (skip metadata, not needed to decode)
	r.uvarint() // maxEnd
	if r.bad {
		return dst, fmt.Errorf("index: truncated ERPL block header")
	}
	dst = slices.Grow(dst, count)
	// The entry loop reads the payload through a local slice: one-byte
	// varints (every delta inside a document, most lengths) take the short
	// branch of uvarintHead, and the bad-input checks fold into one per
	// entry.
	b := r.b
	var doc, end uint32
	for i := 0; i < count; i++ {
		d, n1 := uvarintHead(b)
		b = b[max(n1, 0):]
		x, n2 := uvarintHead(b)
		b = b[max(n2, 0):]
		if n1 <= 0 || n2 <= 0 || len(b) < 9 {
			return dst, fmt.Errorf("index: truncated ERPL block at entry %d", i)
		}
		switch {
		case i == 0:
			doc, end = uint32(d), uint32(x)
		case d == 0:
			end += uint32(x)
		default:
			doc, end = doc+uint32(d), uint32(x)
		}
		scoreBits := binary.BigEndian.Uint64(b)
		length, n3 := uvarintHead(b[8:])
		if n3 <= 0 {
			return dst, fmt.Errorf("index: truncated ERPL block at entry %d", i)
		}
		b = b[8+n3:]
		dst = append(dst, RPLEntry{
			Score:  math.Float64frombits(scoreBits),
			SID:    uint32(sid),
			Doc:    doc,
			End:    end,
			Length: uint32(length),
		})
	}
	if len(b) != 0 {
		return dst, fmt.Errorf("index: %d trailing bytes in ERPL block", len(b))
	}
	return dst, nil
}

// uvarintHead is binary.Uvarint with the one-byte case answered inline.
func uvarintHead(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// erplBlockBounds reads an ERPL block header's entry count and max
// (doc, end) without decoding the entries — the skip metadata Merge's
// bulk drain and lazy list totals are built on.
func erplBlockBounds(v []byte) (count int, maxDoc, maxEnd uint32, err error) {
	if err := checkBlock(v, "ERPL"); err != nil {
		return 0, 0, 0, err
	}
	r := &uvReader{b: v[1:]}
	c := r.uvarint()
	r.uvarint() // sid
	d := r.uvarint()
	e := r.uvarint()
	if r.bad {
		return 0, 0, 0, fmt.Errorf("index: truncated ERPL block header")
	}
	// The encoder never seals an empty block; a count of 0 is corruption,
	// and rejecting it here keeps header-only pruning (SkipTo, DropList)
	// consistent with what a full decode of the row would report.
	if c == 0 {
		return 0, 0, 0, fmt.Errorf("index: implausible block count 0")
	}
	return int(c), uint32(d), uint32(e), nil
}
