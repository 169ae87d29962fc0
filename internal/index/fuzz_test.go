package index

import (
	"bytes"
	"encoding/binary"
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
	f.Add(legacyPostingValue(sweepPositions(40)), uint32(4), uint32(9), uint32(300))
	f.Add([]byte{0x02, 0x03, 0xe8}, uint32(0), uint32(0), uint32(1))
	f.Add([]byte{0x03, 0x00, 0x21, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff}, uint32(0), uint32(0), uint32(1))
	f.Fuzz(func(t *testing.T, v []byte, doc, off, length uint32) {
		lo := Pos{Doc: doc, Off: off}
		hi := Pos{Doc: doc, Off: off + length}
		ps, err := decodePostingInto(nil, v)
		tf, more, cerr := (&SpanProbe{}).spanInFragment(v, lo, hi, nil)
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
		f.Add(r.Key, r.Value)
	}
	f.Add([]byte("t\x00"), []byte{0x02, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, k, v []byte) {
		_, _ = decodeRPLRow(k, v)  // must not panic
		_, _ = rplBlockMaxScore(v) // header reader, same contract
	})
}

func FuzzDecodeERPLRow(f *testing.F) {
	rows := EncodeERPLBlocks("t", randEntries(20, 5))
	for _, r := range rows {
		f.Add(r.Key, r.Value)
	}
	f.Add([]byte("t\x00"), []byte{0x02, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, k, v []byte) {
		_, _ = decodeERPLRow(k, v)      // must not panic
		_, _, _, _ = erplRowStats(k, v) // header reader, same contract
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
			dec, err := decodeRPLRow(r.Key, r.Value)
			if err != nil {
				t.Fatalf("rpl decode: %v", err)
			}
			got = append(got, dec...)
		}
		if err := entriesEqual(got, want); err != nil {
			t.Fatalf("rpl round trip: %v", err)
		}

		SortRPLEntriesPositionOrder(want)
		got = got[:0]
		for _, r := range EncodeERPLBlocks("t", append([]RPLEntry(nil), entries...)) {
			dec, err := decodeERPLRow(r.Key, r.Value)
			if err != nil {
				t.Fatalf("erpl decode: %v", err)
			}
			got = append(got, dec...)
		}
		if err := entriesEqual(got, want); err != nil {
			t.Fatalf("erpl round trip: %v", err)
		}
	})
}
