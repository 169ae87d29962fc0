package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// Fuzz targets for the on-disk value codecs. Two properties:
//
//  1. Decode never panics — arbitrary bytes must produce (result, nil) or
//     (nil, error), never a runtime fault. This is the contract the
//     iterators rely on when a store is corrupted.
//  2. Round-trip — entries derived from the fuzz input encode and decode
//     back to the identical entry sequence.
//
// Run via `make fuzz` (short bounded runs, wired into CI) or directly:
//
//	go test ./internal/index -fuzz FuzzDecodeRPLRow -fuzztime 10s

// FuzzDecodePostingValue also drives the in-place span counter over the
// same bytes: it must not panic either, and on every value the strict
// decoder accepts it must agree with filtering the decoded positions.
func FuzzDecodePostingValue(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0))
	f.Add(postingValue([]Pos{{Doc: 1, Off: 2}, {Doc: 1, Off: 7}}), uint32(1), uint32(2), uint32(6))
	f.Add(postingValue(sweepPositions(100)), uint32(5), uint32(0), uint32(40000))
	f.Add([]byte{0x03, 0x00, 0x21, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff}, uint32(0), uint32(0), uint32(1))
	f.Add(postingValue(sweepPositions(maxPostingsPerFragment)), uint32(40), uint32(0), uint32(1<<20))
	f.Add(postingValue([]Pos{{Doc: 1 << 30, Off: 1 << 31}, MaxPos}), uint32(1<<30), uint32(1<<31-1), uint32(2))
	f.Fuzz(func(t *testing.T, v []byte, doc, off, length uint32) {
		lo := Pos{Doc: doc, Off: off}
		hi := Pos{Doc: doc, Off: off + length}
		ps, err := decodePostingInto(nil, v)
		tf, more, cerr := spanInFragment(v, lo, hi, nil)
		if err != nil {
			return
		}
		wantTF, wantMore := filterSpan(ps, lo, hi)
		if cerr != nil || tf != wantTF || more != wantMore {
			t.Fatalf("span [%v, %v) over %d decoded positions = (%d, %v, %v), want (%d, %v)",
				lo, hi, len(ps), tf, more, cerr, wantTF, wantMore)
		}
	})
}

func FuzzDecodeRPLRow(f *testing.F) {
	rows := EncodeRPLBlocks("t", randEntries(20, 3))
	for _, r := range rows {
		f.Add(r.Value)
	}
	f.Add([]byte{0x02, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, v []byte) {
		_, _ = decodeRPLBlock(v) // must not panic
		_, _ = rplRowCount(v)    // header reader, same contract
	})
}

// FuzzDecodeERPLRow drives the decoder the iterators use — it appends to a
// buffer the caller owns — beside the allocating decoder it replaced, kept
// below as the reference: on every input both fail or both return the same
// entries, and whatever the buffer already held stays in front of them.
func FuzzDecodeERPLRow(f *testing.F) {
	rows := EncodeERPLBlocks("t", randEntries(20, 5))
	for _, r := range rows {
		f.Add(r.Value)
	}
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Add(append([]byte("\x02\t00000\xff\xff"), bytes.Repeat([]byte("0"), 95)...)) // NaN scores
	held := RPLEntry{Score: 1, SID: 2, Doc: 3, End: 4, Length: 5}
	buf := make([]RPLEntry, 0, 4)
	f.Fuzz(func(t *testing.T, v []byte) {
		_, _, _, _ = erplBlockBounds(v) // header reader: must not panic
		want, wantErr := referenceDecodeERPLRow(v)
		got, err := decodeERPLBlockInto(append(buf[:0], held), v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("reusing decoder: %v, allocating decoder: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got[0] != held {
			t.Fatalf("the buffer's entry was overwritten: %+v", got[0])
		}
		if err := entriesEqual(got[1:], want); err != nil {
			t.Fatal(err)
		}
		buf = got // the next input decodes into what this one grew
	})
}

// referenceDecodeERPLRow is the ERPL block decoder as it was while every
// block was decoded into a slice of its own.
func referenceDecodeERPLRow(v []byte) ([]RPLEntry, error) {
	if len(v) < 1 || v[0] != listFormatBlock {
		return nil, fmt.Errorf("index: bad ERPL block format")
	}
	r := &uvReader{b: v[1:]}
	count, err := r.blockCount(11)
	if err != nil {
		return nil, err
	}
	sid := r.uvarint()
	r.uvarint() // maxDoc
	r.uvarint() // maxEnd
	if r.bad {
		return nil, fmt.Errorf("index: truncated ERPL block header")
	}
	out := make([]RPLEntry, 0, count)
	var prev RPLEntry
	for i := 0; i < count; i++ {
		var doc, end uint64
		if i == 0 {
			doc = r.uvarint()
			end = r.uvarint()
		} else {
			docDelta := r.uvarint()
			val := r.uvarint()
			if docDelta == 0 {
				doc = uint64(prev.Doc)
				end = uint64(prev.End) + val
			} else {
				doc = uint64(prev.Doc) + docDelta
				end = val
			}
		}
		scoreBits := r.uint64()
		length := r.uvarint()
		if r.bad {
			return nil, fmt.Errorf("index: truncated ERPL block at entry %d", i)
		}
		prev = RPLEntry{
			Score:  math.Float64frombits(scoreBits),
			SID:    uint32(sid),
			Doc:    uint32(doc),
			End:    uint32(end),
			Length: uint32(length),
		}
		out = append(out, prev)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("index: %d trailing bytes in ERPL block", len(r.b))
	}
	return out, nil
}

// FuzzRadixScoreOrder holds RadixScoreOrder to a stable comparison sort on
// the inverted score: on every input both leave the same entries in the
// same order, bit for bit, and the input is left as it was. Scores come
// from the bytes in four regimes — raw bits (NaN included), a handful of
// special values (negative and clamped to 0, -0 and +0, 1 and its ULP
// neighbours), coarse ties, and a few ULPs around one value — so the digits
// that differ sit in every byte the sort passes over. Entries already in
// position order must come out in full RPL key order.
func FuzzRadixScoreOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 7, 9}, 40))
	f.Add([]byte{
		1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, // -1
		1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, // -0
		1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, // +0
		1, 4, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, // 1 - ULP
		1, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, // 1 + ULP
		3, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3,
		2, 0xf8, 0, 0, 0, 0, 0, 0, 0, 3, 0, 4, // -2
		0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3, 0, 5, // NaN
	})
	one := math.Float64bits(1)
	special := []float64{-1, math.Copysign(0, -1), 0, 1, math.Float64frombits(one - 1), math.Float64frombits(one + 1), 3.25, 1e300}
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []RPLEntry
		for len(data) >= 12 && len(entries) < 4*BlockTargetEntries {
			var s float64
			switch data[0] % 4 {
			case 0:
				s = math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			case 1:
				s = special[int(data[1])%len(special)]
			case 2:
				s = float64(int8(data[1])) / 4
			default:
				s = math.Float64frombits(math.Float64bits(1.5) + uint64(data[1]%5))
			}
			entries = append(entries, RPLEntry{
				Score:  s,
				SID:    uint32(data[9]%4) + 1,
				Doc:    uint32(binary.LittleEndian.Uint16(data[10:12])),
				End:    uint32(len(entries) + 1),
				Length: uint32(data[9]),
			})
			data = data[12:]
		}
		input := slices.Clone(entries)
		want := slices.Clone(entries)
		slices.SortStableFunc(want, func(a, b RPLEntry) int {
			return cmp.Compare(invertScore(a.Score), invertScore(b.Score))
		})
		// The buffers are longer than the input and start dirty, as a
		// caller's reused buffers are.
		dst := make([]RPLEntry, len(entries)+3)
		for i := range dst {
			dst[i] = RPLEntry{Score: -7, SID: 99}
		}
		scratch := slices.Clone(dst)
		RadixScoreOrder(dst, scratch, entries)
		if err := entriesEqual(dst[:len(entries)], want); err != nil {
			t.Fatalf("radix vs stable sort: %v", err)
		}
		if err := entriesEqual(entries, input); err != nil {
			t.Fatalf("the input changed: %v", err)
		}
		SortRPLEntriesPositionOrder(entries)
		if RadixScoreOrder(dst, scratch, entries); !slices.IsSortedFunc(dst[:len(entries)], compareRPLEntries) {
			t.Fatal("position-ordered input did not come out in RPL key order")
		}
	})
}

// FuzzBlockRoundTrip derives an entry list from the fuzz bytes and checks
// both block codecs reproduce it exactly (after their canonical sort).
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(bytes.Repeat([]byte{0xab}, 400))
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []RPLEntry
		seen := make(map[[3]uint32]bool)
		for len(data) >= 12 && len(entries) < 4*BlockTargetEntries {
			e := RPLEntry{
				Score:  float64(binary.LittleEndian.Uint16(data[0:2])) / 8,
				SID:    uint32(data[2]%5) + 1,
				Doc:    uint32(binary.LittleEndian.Uint16(data[3:5])),
				End:    binary.LittleEndian.Uint32(data[5:9])%1e6 + 1,
				Length: uint32(data[9]) + 1,
			}
			data = data[12:]
			id := [3]uint32{e.SID, e.Doc, e.End}
			if seen[id] {
				continue // (sid,doc,end) is the identity in both orders
			}
			seen[id] = true
			entries = append(entries, e)
		}
		if len(entries) == 0 {
			return
		}

		want := append([]RPLEntry(nil), entries...)
		SortRPLEntriesScoreOrder(want)
		var got []RPLEntry
		for _, r := range EncodeRPLBlocks("t", append([]RPLEntry(nil), entries...)) {
			dec, err := decodeRPLBlock(r.Value)
			if err != nil {
				t.Fatalf("rpl decode: %v", err)
			}
			got = append(got, dec...)
		}
		if err := entriesEqual(got, want); err != nil {
			t.Fatalf("rpl round trip: %v", err)
		}

		// The ERPL side decodes every row twice: through the allocating
		// reference decoder, and appended to one buffer across all rows.
		SortRPLEntriesPositionOrder(want)
		got = got[:0]
		var reused []RPLEntry
		for _, r := range EncodeERPLBlocks("t", append([]RPLEntry(nil), entries...)) {
			dec, err := referenceDecodeERPLRow(r.Value)
			if err != nil {
				t.Fatalf("erpl decode: %v", err)
			}
			got = append(got, dec...)
			if reused, err = decodeERPLBlockInto(reused, r.Value); err != nil {
				t.Fatalf("erpl decode into the shared buffer: %v", err)
			}
		}
		if err := entriesEqual(got, want); err != nil {
			t.Fatalf("erpl round trip: %v", err)
		}
		if err := entriesEqual(reused, want); err != nil {
			t.Fatalf("erpl round trip through the shared buffer: %v", err)
		}
	})
}
