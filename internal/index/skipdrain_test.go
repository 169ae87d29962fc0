package index

// Block-boundary edge tests for ERPLIterator.SkipTo / DrainBelow, alone
// and across the sids of a term's ERPL: skip targets exactly at a block
// header's (maxDoc, maxEnd) bound, one past it, a one-entry trailing
// block, and the count-0 "empty block" a well-formed encoder can never
// emit (it must decode as corrupt, not as silently empty).

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"trex/internal/storage"
)

func skipDrainStore(t *testing.T) *Store {
	t.Helper()
	db := storage.OpenMemory()
	t.Cleanup(func() { db.Close() })
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sdEnt builds a deterministic entry; End is Doc+2 so (doc, end) targets
// between entries exist on both sides of every stored pair.
func sdEnt(sid, doc uint32) RPLEntry {
	return RPLEntry{Score: 1 + float64(doc)/7, SID: sid, Doc: doc, End: doc + 2, Length: doc%9 + 1}
}

// writeBlocked encodes the entries as block rows and asserts the
// block layout the boundary cases below rely on.
func writeBlocked(t *testing.T, s *Store, term string, entries []RPLEntry, wantBlocks []int) {
	t.Helper()
	rows := EncodeERPLBlocks(term, entries)
	if len(rows) != len(wantBlocks) {
		t.Fatalf("%q encoded into %d blocks, want %d (BlockTargetEntries changed?)", term, len(rows), len(wantBlocks))
	}
	for i, want := range wantBlocks {
		if len(rows[i].Entries) != want {
			t.Fatalf("%q block %d holds %d entries, want %d", term, i, len(rows[i].Entries), want)
		}
	}
	if err := s.WriteListRows(KindERPL, rows); err != nil {
		t.Fatal(err)
	}
}

// TestERPLIteratorSkipToBlockBounds drives SkipTo over a 257-entry
// single-sid list: two full 128-entry blocks plus a one-entry trailing
// block, with targets pinned to every boundary flavor.
func TestERPLIteratorSkipToBlockBounds(t *testing.T) {
	s := skipDrainStore(t)
	var entries []RPLEntry
	for doc := uint32(0); doc < 257; doc++ {
		entries = append(entries, sdEnt(1, doc))
	}
	writeBlocked(t, s, "tm", entries, []int{128, 128, 1})

	cases := []struct {
		name        string
		doc, end    uint32
		wantSkipped int
		wantDoc     uint32 // next doc after the skip
		exhausted   bool
	}{
		{name: "at first entry", doc: 0, end: 0, wantSkipped: 0, wantDoc: 0},
		// Block 0's header bound is its last entry (127, 129): a target
		// equal to the bound straddles the block (the bound entry itself
		// must still be returned), so nothing skips undecoded.
		{name: "exactly at block 0 header bound", doc: 127, end: 129, wantSkipped: 0, wantDoc: 127},
		// One past the bound: block 0 skips whole without decoding.
		{name: "one past block 0 header bound", doc: 127, end: 130, wantSkipped: 128, wantDoc: 128},
		{name: "exactly at block 1 first entry", doc: 128, end: 130, wantSkipped: 128, wantDoc: 128},
		{name: "between block 1 and trailing block", doc: 256, end: 0, wantSkipped: 256, wantDoc: 256},
		// The trailing block holds a single entry (256, 258); a target
		// equal to it straddles, one past it skips the block whole.
		{name: "exactly at trailing single-entry block", doc: 256, end: 258, wantSkipped: 256, wantDoc: 256},
		{name: "one past trailing block", doc: 256, end: 259, wantSkipped: 257, exhausted: true},
		{name: "far past the list", doc: 1000, end: 0, wantSkipped: 257, exhausted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := NewERPLIterator(s, "tm", 1)
			skipped, err := it.SkipTo(tc.doc, tc.end)
			if err != nil {
				t.Fatal(err)
			}
			if skipped != tc.wantSkipped {
				t.Fatalf("skipped %d entries undecoded, want %d", skipped, tc.wantSkipped)
			}
			e, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tc.exhausted {
				if ok {
					t.Fatalf("iterator yielded %+v past the end", e)
				}
				return
			}
			if !ok || e != sdEnt(1, tc.wantDoc) {
				t.Fatalf("next after skip = %+v ok=%v, want entry for doc %d", e, ok, tc.wantDoc)
			}
		})
	}

	t.Run("skip within already-decoded block", func(t *testing.T) {
		it := NewERPLIterator(s, "tm", 1)
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				t.Fatalf("prime Next %d: %v %v", i, ok, err)
			}
		}
		// Block 0 is decoded; the target sits inside it, so the skip is
		// a pure buffered drop: nothing skips undecoded.
		skipped, err := it.SkipTo(100, 0)
		if err != nil {
			t.Fatal(err)
		}
		if skipped != 0 {
			t.Fatalf("buffered drop reported %d undecoded skips", skipped)
		}
		if e, ok, err := it.Next(); err != nil || !ok || e != sdEnt(1, 100) {
			t.Fatalf("next = %+v ok=%v err=%v, want doc 100", e, ok, err)
		}
	})
}

// TestERPLIteratorDrainBelowBlockBounds checks the strict-bound contract
// across block boundaries on the same 257-entry layout.
func TestERPLIteratorDrainBelowBlockBounds(t *testing.T) {
	s := skipDrainStore(t)
	var entries []RPLEntry
	for doc := uint32(0); doc < 257; doc++ {
		entries = append(entries, sdEnt(1, doc))
	}
	writeBlocked(t, s, "tm", entries, []int{128, 128, 1})

	cases := []struct {
		name      string
		doc, end  uint32
		wantN     int
		wantPeek  uint32
		exhausted bool
	}{
		{name: "mid block", doc: 5, end: 0, wantN: 5, wantPeek: 5},
		// The bound is exclusive: an entry equal to it stays.
		{name: "exactly at an entry", doc: 2, end: 4, wantN: 2, wantPeek: 2},
		{name: "across a block boundary", doc: 129, end: 0, wantN: 129, wantPeek: 129},
		{name: "exactly at block 1 first entry", doc: 128, end: 130, wantN: 128, wantPeek: 128},
		{name: "past the trailing block", doc: 1000, end: 0, wantN: 257, exhausted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := NewERPLIterator(s, "tm", 1)
			out, err := it.DrainBelow(tc.doc, tc.end, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != tc.wantN {
				t.Fatalf("drained %d entries, want %d", len(out), tc.wantN)
			}
			for i, e := range out {
				if e != sdEnt(1, uint32(i)) {
					t.Fatalf("drained entry %d = %+v, want doc %d", i, e, i)
				}
			}
			e, ok, err := it.Peek()
			if err != nil {
				t.Fatal(err)
			}
			if tc.exhausted {
				if ok {
					t.Fatalf("peek past full drain = %+v", e)
				}
				return
			}
			if !ok || e.Doc != tc.wantPeek {
				t.Fatalf("peek after drain = %+v ok=%v, want doc %d", e, ok, tc.wantPeek)
			}
		})
	}
}

// TestTermERPLSkipDrainAcrossSIDs reads a term's ERPL over three sids of
// 300 entries (two full blocks and a partial one each, sid 2 written in a
// run of its own) as Merge does, one ERPLIterator Reset onto each sid, and
// checks SkipTo / DrainBelow against a brute-force reference.
func TestTermERPLSkipDrainAcrossSIDs(t *testing.T) {
	s := skipDrainStore(t)
	sids := []uint32{1, 2, 3}
	var all []RPLEntry
	for _, sid := range sids {
		var stream []RPLEntry
		for i := uint32(0); i < 300; i++ {
			stream = append(stream, sdEnt(sid, sid-1+3*i))
		}
		all = append(all, stream...)
		if sid == 2 {
			writeBlocks(t, s, KindERPL, "tt", stream)
		} else {
			writeBlocked(t, s, "tt", stream, []int{128, 128, 44})
		}
	}
	// expect returns sid's entries at or after (doc, end), or before it.
	expect := func(sid, doc, end uint32, after bool) []RPLEntry {
		var out []RPLEntry
		for _, e := range all {
			if e.SID == sid && (CompareDocEnd(e.Doc, e.End, doc, end) >= 0) == after {
				out = append(out, e)
			}
		}
		return out
	}
	var it ERPLIterator // one iterator for every sid, as Merge keeps one per term

	t.Run("drain below then next", func(t *testing.T) {
		for _, sid := range sids {
			it.Reset(s, "tt", sid)
			out, err := it.DrainBelow(75, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := expect(sid, 75, 0, false)
			if len(out) != len(want) || len(want) == 0 {
				t.Fatalf("sid %d: drained %d entries, want %d", sid, len(out), len(want))
			}
			for i, e := range out {
				if e != want[i] {
					t.Fatalf("sid %d: drained entry %d = %+v, want %+v", sid, i, e, want[i])
				}
			}
			for _, wantE := range expect(sid, 75, 0, true) {
				e, ok, err := it.Next()
				if err != nil || !ok || e != wantE {
					t.Fatalf("sid %d: after drain, next = %+v ok=%v err=%v, want %+v", sid, e, ok, err, wantE)
				}
			}
			if e, ok, err := it.Next(); ok || err != nil {
				t.Fatalf("sid %d: Next past the segment = %+v, %v, %v", sid, e, ok, err)
			}
		}
	})

	t.Run("skip prunes whole blocks per stream", func(t *testing.T) {
		skipped := 0
		for _, sid := range sids {
			it.Reset(s, "tt", sid)
			// Merge reads each segment's head first, which decodes its
			// first block, so those entries drop buffered. Block 1 of
			// every segment (docs up to sid-1+765) lies wholly below doc
			// 800 and must skip undecoded — 128 entries each.
			if _, _, err := it.Peek(); err != nil {
				t.Fatal(err)
			}
			n, err := it.SkipTo(800, 0)
			if err != nil {
				t.Fatal(err)
			}
			skipped += n
			want := expect(sid, 800, 0, true)
			remaining := 0
			for ok := true; ok; {
				var e RPLEntry
				var err error
				e, ok, err = it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					if e != want[remaining] {
						t.Fatalf("sid %d: entry %d after skip = %+v, want %+v", sid, remaining, e, want[remaining])
					}
					remaining++
				}
			}
			if remaining != len(want) {
				t.Fatalf("sid %d: %d entries after skip, want %d", sid, remaining, len(want))
			}
		}
		if skipped != 3*128 {
			t.Fatalf("skipped %d entries undecoded, want 384: block 1 of every stream", skipped)
		}
	})

	t.Run("skip past every stream exhausts the merge", func(t *testing.T) {
		for _, sid := range sids {
			it.Reset(s, "tt", sid)
			if _, err := it.SkipTo(10000, 0); err != nil {
				t.Fatal(err)
			}
			if e, ok, err := it.Peek(); ok || err != nil {
				t.Fatalf("sid %d: head after full skip = %+v, %v", sid, e, err)
			}
			out, err := it.DrainBelow(20000, 0, nil)
			if err != nil || len(out) != 0 {
				t.Fatalf("sid %d: drain after full skip = %d entries, err %v", sid, len(out), err)
			}
		}
	})
}

// TestEmptyTrailingBlockIsCorrupt pins down the count-0 block contract:
// the encoder can never produce one, so the decoder must reject it as
// corrupt instead of treating it as a silently empty trailing block.
func TestEmptyTrailingBlockIsCorrupt(t *testing.T) {
	s := skipDrainStore(t)
	writeBlocks(t, s, KindERPL, "zz", []RPLEntry{sdEnt(1, 0), sdEnt(1, 1), sdEnt(1, 2), sdEnt(1, 3)})
	// A hand-built trailing block row: valid header shape, zero entries.
	tail := sdEnt(1, 9)
	val := []byte{listFormatBlock}
	val = binary.AppendUvarint(val, 0) // count — invalid
	val = binary.AppendUvarint(val, uint64(tail.SID))
	val = binary.AppendUvarint(val, uint64(tail.Doc))
	val = binary.AppendUvarint(val, uint64(tail.End))
	if err := s.ERPLs.Put(erplKey("zz", tail), val); err != nil {
		t.Fatal(err)
	}

	it := NewERPLIterator(s, "zz", 1)
	sawErr := false
	for i := 0; i < 10; i++ {
		_, ok, err := it.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "block count") {
				t.Fatalf("error %q does not name the block count", err)
			}
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("count-0 block iterated cleanly — corrupt row treated as empty")
	}

	// SkipTo prunes by header stats, which must reject the row too.
	it2 := NewERPLIterator(s, "zz", 1)
	if _, err := it2.SkipTo(tail.Doc+1, 0); err == nil {
		t.Fatal("SkipTo read a count-0 block header without error")
	} else if !strings.Contains(fmt.Sprint(err), "block count") {
		t.Fatalf("SkipTo error %q does not name the block count", err)
	}
}

// TestERPLNextDoesNotAllocate: once an iterator's buffer has grown to
// block size, a scan decodes every further block into it — Next allocates
// nothing per entry or per block, on its first segment or on the next one
// it was Reset onto.
func TestERPLNextDoesNotAllocate(t *testing.T) {
	s := skipDrainStore(t)
	const perSID = 40 * BlockTargetEntries
	var entries []RPLEntry
	for sid := uint32(1); sid <= 3; sid++ {
		for i := uint32(0); i < perSID; i++ {
			entries = append(entries, sdEnt(sid, 3*i+sid))
		}
	}
	writeBlocks(t, s, KindERPL, "tt", entries)

	it := NewERPLIterator(s, "tt", 2)
	reset := NewERPLIterator(s, "tt", 1)
	if _, _, err := reset.Peek(); err != nil {
		t.Fatal(err)
	}
	reset.Reset(s, "tt", 3)
	for name, next := range map[string]func() (RPLEntry, bool, error){"ERPLIterator": it.Next, "Reset ERPLIterator": reset.Next} {
		for i := 0; i < 3*2*BlockTargetEntries; i++ { // six blocks: the buffer is warm
			if _, ok, err := next(); err != nil || !ok {
				t.Fatalf("%s: warm-up Next = %v, %v", name, ok, err)
			}
		}
		// AllocsPerRun reports whole allocations per run, so a run spans a
		// block of every stream: one allocation per block would show as one.
		allocs := testing.AllocsPerRun(8, func() {
			for i := 0; i < 3*BlockTargetEntries; i++ {
				if _, ok, err := next(); err != nil || !ok {
					t.Fatalf("%s: Next = %v, %v", name, ok, err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s.Next allocates %.0f times per %d entries on a warm buffer, want 0", name, allocs, 3*BlockTargetEntries)
		}
	}
}
