package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"trex/internal/storage"
)

// randEntries builds a deterministic entry set spanning several sids and
// documents, with duplicate scores to exercise tie-breaks.
func randEntries(n int, seed int64) []RPLEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]RPLEntry, 0, n)
	seen := make(map[[2]uint32]bool)
	for len(out) < n {
		doc := uint32(rng.Intn(50))
		end := uint32(rng.Intn(5000) + 1)
		id := [2]uint32{doc, end}
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, RPLEntry{
			Score:  float64(rng.Intn(40)) / 4, // duplicates on purpose
			SID:    uint32(rng.Intn(4) + 1),
			Doc:    doc,
			End:    end,
			Length: uint32(rng.Intn(300) + 1),
		})
	}
	return out
}

func entriesEqual(a, b []RPLEntry) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d != %d", len(a), len(b))
	}
	for i := range a {
		// Scores compare by their bits: a corrupt row can decode to NaN.
		x, y := a[i], b[i]
		if math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			return fmt.Errorf("entry %d: score %x != %x", i, math.Float64bits(x.Score), math.Float64bits(y.Score))
		}
		x.Score, y.Score = 0, 0
		if x != y {
			return fmt.Errorf("entry %d: %+v != %+v", i, a[i], b[i])
		}
	}
	return nil
}

func TestRPLBlockRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 127, 128, 129, 300, 1000} {
		entries := randEntries(n, int64(n))
		want := append([]RPLEntry(nil), entries...)
		SortRPLEntriesScoreOrder(want)
		rows := EncodeRPLBlocks("term", entries)
		var got []RPLEntry
		for _, r := range rows {
			dec, err := decodeRPLBlock(r.Value)
			if err != nil {
				t.Fatalf("n=%d: decode: %v", n, err)
			}
			if err := entriesEqual(dec, r.Entries); err != nil {
				t.Fatalf("n=%d: row entries mismatch: %v", n, err)
			}
			got = append(got, dec...)
		}
		if err := entriesEqual(got, want); err != nil {
			t.Fatalf("n=%d: round trip: %v", n, err)
		}
	}
}

func TestERPLBlockRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 128, 129, 500} {
		entries := randEntries(n, int64(1000+n))
		want := append([]RPLEntry(nil), entries...)
		SortRPLEntriesPositionOrder(want)
		rows := EncodeERPLBlocks("term", entries)
		var got []RPLEntry
		for _, r := range rows {
			sid := r.Entries[0].SID
			for _, e := range r.Entries {
				if e.SID != sid {
					t.Fatalf("n=%d: ERPL block mixes sids %d and %d", n, sid, e.SID)
				}
			}
			dec, err := decodeERPLBlockInto(nil, r.Value)
			if err != nil {
				t.Fatalf("n=%d: decode: %v", n, err)
			}
			if err := entriesEqual(dec, r.Entries); err != nil {
				t.Fatalf("n=%d: row entries mismatch: %v", n, err)
			}
			got = append(got, dec...)
		}
		if err := entriesEqual(got, want); err != nil {
			t.Fatalf("n=%d: round trip: %v", n, err)
		}
	}
}

// TestBlockByteAttribution checks that per-entry byte shares sum exactly
// to the row footprint — the invariant the catalog's (and therefore the
// advisor's) size accounting relies on.
func TestBlockByteAttribution(t *testing.T) {
	entries := randEntries(400, 7)
	for _, tc := range []struct {
		name string
		rows []ListRow
	}{
		{"rpl", EncodeRPLBlocks("sometoken", append([]RPLEntry(nil), entries...))},
		{"erpl", EncodeERPLBlocks("sometoken", append([]RPLEntry(nil), entries...))},
	} {
		total := 0
		for _, r := range tc.rows {
			if len(r.EntryBytes) != len(r.Entries) {
				t.Fatalf("%s: %d sizes for %d entries", tc.name, len(r.EntryBytes), len(r.Entries))
			}
			rowSum := 0
			for _, b := range r.EntryBytes {
				rowSum += b
			}
			if rowSum != len(r.Key)+len(r.Value) {
				t.Fatalf("%s: attribution sum %d != row footprint %d", tc.name, rowSum, len(r.Key)+len(r.Value))
			}
			total += rowSum
		}
		// Sanity: the encoding compresses against one row per entry (the
		// RPL key plus a 12-byte score and length).
		perEntry := len(entries) * (len("sometoken") + 1 + 20 + 12)
		if total >= perEntry {
			t.Fatalf("%s: encoded %d bytes >= %d at one row per entry", tc.name, total, perEntry)
		}
	}
}

func TestERPLBlockBounds(t *testing.T) {
	entries := randEntries(300, 11)
	rows := EncodeERPLBlocks("t", entries)
	for i, r := range rows {
		count, maxDoc, maxEnd, err := erplBlockBounds(r.Value)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if count != len(r.Entries) {
			t.Fatalf("row %d: header count %d, want %d", i, count, len(r.Entries))
		}
		last := r.Entries[len(r.Entries)-1]
		if maxDoc != last.Doc || maxEnd != last.End {
			t.Fatalf("row %d: bounds (%d,%d), want (%d,%d)", i, maxDoc, maxEnd, last.Doc, last.End)
		}
	}
}

// writeBlocks writes entries as blocks straight into the store, as one
// Materialize run would.
func writeBlocks(t *testing.T, st *Store, kind ListKind, term string, entries []RPLEntry) {
	t.Helper()
	var rows []ListRow
	if kind == KindRPL {
		rows = EncodeRPLBlocks(term, entries)
	} else {
		rows = EncodeERPLBlocks(term, entries)
	}
	if err := st.WriteListRows(kind, rows); err != nil {
		t.Fatal(err)
	}
}

func collectRPL(t *testing.T, st *Store, term string) []RPLEntry {
	t.Helper()
	it := NewRPLIterator(st, term)
	var got []RPLEntry
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		got = append(got, e)
	}
}

func TestRPLIteratorOverBlocks(t *testing.T) {
	st := openEmptyStore(t)
	entries := randEntries(500, 21)
	writeBlocks(t, st, KindRPL, "xml", append([]RPLEntry(nil), entries...))
	want := append([]RPLEntry(nil), entries...)
	SortRPLEntriesScoreOrder(want)
	it := NewRPLIterator(st, "xml")
	var got []RPLEntry
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, e)
	}
	if err := entriesEqual(got, want); err != nil {
		t.Fatal(err)
	}
	if it.Reads != len(entries) {
		t.Fatalf("Reads = %d, want %d", it.Reads, len(entries))
	}
	wantRows := (len(entries) + BlockTargetEntries - 1) / BlockTargetEntries
	if it.RowsRead != wantRows {
		t.Fatalf("RowsRead = %d, want %d", it.RowsRead, wantRows)
	}
}

// TestRPLIteratorOverlappingBlocks writes two block generations whose key
// ranges interleave — the shape a partial rebuild could produce — and
// checks the pending-merge still emits globally sorted entries.
func TestRPLIteratorOverlappingBlocks(t *testing.T) {
	st := openEmptyStore(t)
	entries := randEntries(300, 55)
	var genA, genB []RPLEntry
	for i, e := range entries {
		if i%2 == 0 {
			genA = append(genA, e)
		} else {
			genB = append(genB, e)
		}
	}
	writeBlocks(t, st, KindRPL, "xml", genA)
	writeBlocks(t, st, KindRPL, "xml", genB)
	want := append([]RPLEntry(nil), entries...)
	SortRPLEntriesScoreOrder(want)
	if err := entriesEqual(collectRPL(t, st, "xml"), want); err != nil {
		t.Fatal(err)
	}
}

func TestBlockMaxScoreTracksPeek(t *testing.T) {
	st := openEmptyStore(t)
	entries := randEntries(200, 91)
	writeBlocks(t, st, KindRPL, "xml", append([]RPLEntry(nil), entries...))
	it := NewRPLIterator(st, "xml")
	prev := -1.0
	for {
		bound, ok, err := it.BlockMaxScore()
		if err != nil {
			t.Fatal(err)
		}
		e, ok2, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ok != ok2 {
			t.Fatalf("BlockMaxScore ok=%v but Next ok=%v", ok, ok2)
		}
		if !ok {
			break
		}
		if bound != e.Score {
			t.Fatalf("bound %v != next score %v", bound, e.Score)
		}
		if prev >= 0 && e.Score > prev {
			t.Fatalf("score ascended: %v after %v", e.Score, prev)
		}
		prev = e.Score
	}
}

func TestERPLSkipToPrunesBlocks(t *testing.T) {
	st := openEmptyStore(t)
	// Single sid, ascending docs: many whole blocks precede the target.
	var entries []RPLEntry
	for i := 0; i < 1000; i++ {
		entries = append(entries, RPLEntry{
			Score: float64(i%7) + 1, SID: 1, Doc: uint32(i / 10), End: uint32(100 + i%10), Length: 5,
		})
	}
	writeBlocks(t, st, KindERPL, "q", append([]RPLEntry(nil), entries...))
	it := NewERPLIterator(st, "q", 1)
	skipped, err := it.SkipTo(80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("SkipTo decoded every block it passed")
	}
	e, ok, err := it.Next()
	if err != nil || !ok {
		t.Fatalf("Next after SkipTo = %v, %v", ok, err)
	}
	if e.Doc != 80 || e.End != 100 {
		t.Fatalf("landed on (%d,%d), want (80,100)", e.Doc, e.End)
	}
	// `skipped` counts only entries in rows pruned via the header bounds
	// (never decoded); the straddling row's leading entries are decoded and
	// dropped without being counted. 800 entries precede doc 80, and 6 full
	// 128-entry blocks (768 entries) fit wholly below it.
	if skipped != 768 {
		t.Fatalf("skipped = %d, want 768", skipped)
	}
	rest := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rest++
	}
	if rest+1 != 200 { // docs 80..99, 10 entries each
		t.Fatalf("read %d entries at/after target, want 200", rest+1)
	}
}

// TestTermERPLSkipToAndDrainBelow skips and drains a term's ERPL across
// three sids as Merge reads it, one ERPLIterator Reset onto each sid.
func TestTermERPLSkipToAndDrainBelow(t *testing.T) {
	st := openEmptyStore(t)
	var entries []RPLEntry
	for i := 0; i < 600; i++ {
		entries = append(entries, RPLEntry{
			Score: 1, SID: uint32(i%3 + 1), Doc: uint32(i / 3), End: uint32(50 + i%3), Length: 5,
		})
	}
	writeBlocks(t, st, KindERPL, "q", append([]RPLEntry(nil), entries...))
	var it ERPLIterator
	drained := 0
	for _, sid := range []uint32{1, 2, 3} {
		it.Reset(st, "q", sid)
		if _, err := it.SkipTo(150, 0); err != nil {
			t.Fatal(err)
		}
		e, ok, err := it.Peek()
		if err != nil || !ok || e.Doc != 150 || e.SID != sid {
			t.Fatalf("sid %d: Peek after SkipTo = %+v, %v, %v", sid, e, ok, err)
		}
		out, err := it.DrainBelow(170, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 20 { // docs 150..169
			t.Fatalf("sid %d: drained %d entries, want 20", sid, len(out))
		}
		for i := 1; i < len(out); i++ {
			if CompareDocEnd(out[i-1].Doc, out[i-1].End, out[i].Doc, out[i].End) >= 0 {
				t.Fatalf("sid %d: drain out of order at %d: %+v then %+v", sid, i, out[i-1], out[i])
			}
		}
		drained += len(out)
	}
	if drained != 60 { // docs 150..169, 3 sids each
		t.Fatalf("drained %d entries, want 60", drained)
	}
}

func TestDropListOverBlocks(t *testing.T) {
	st := openEmptyStore(t)
	entries := randEntries(400, 13)
	perSID := make(map[uint32]int)
	for _, e := range entries {
		perSID[e.SID]++
	}
	for _, kind := range []ListKind{KindRPL, KindERPL} {
		writeBlocks(t, st, kind, "xml", append([]RPLEntry(nil), entries...))
		for sid := range perSID {
			if err := st.MarkBuilt(kind, "xml", sid, perSID[sid], 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, kind := range []ListKind{KindRPL, KindERPL} {
		n, err := st.DropList(kind, "xml", 2)
		if err != nil {
			t.Fatal(err)
		}
		if n != perSID[2] {
			t.Fatalf("%v: dropped %d, want %d", kind, n, perSID[2])
		}
		if built, _ := st.IsBuilt(kind, "xml", 2); built {
			t.Fatalf("%v: still marked built", kind)
		}
	}
	// Survivors intact, in order, with sid 2 gone.
	var want []RPLEntry
	for _, e := range entries {
		if e.SID != 2 {
			want = append(want, e)
		}
	}
	SortRPLEntriesScoreOrder(want)
	if err := entriesEqual(collectRPL(t, st, "xml"), want); err != nil {
		t.Fatalf("RPL survivors: %v", err)
	}
	for sid := uint32(1); sid <= 4; sid++ {
		it := NewERPLIterator(st, "xml", sid)
		count := 0
		for {
			_, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			count++
		}
		wantN := perSID[sid]
		if sid == 2 {
			wantN = 0
		}
		if count != wantN {
			t.Fatalf("ERPL sid %d: %d entries, want %d", sid, count, wantN)
		}
	}
}

// TestDropERPLOneSIDLeavesTheRestByteIdentical drops one sid of a term
// whose ERPL rows span four sids, beside a term that extends its name
// ("xml" and "xmlx") and a one-entry block of the same sid written by a
// later run: exactly that sid's rows of that term go, the count is their
// entries, the catalog loses only that record, and every other row of both
// trees keeps its key and value bytes.
func TestDropERPLOneSIDLeavesTheRestByteIdentical(t *testing.T) {
	st := openEmptyStore(t)
	type row struct{ k, v string }
	snapshot := func(tree *storage.Tree) []row {
		var out []row
		c := tree.Cursor()
		ok, err := c.First()
		for ; ok; ok, err = c.Next() {
			out = append(out, row{string(c.Key()), string(c.Value())})
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	const term, sid = "xml", 3
	entries := randEntries(900, 31)
	perSID := make(map[uint32]int)
	for _, e := range entries {
		perSID[e.SID]++
	}
	writeBlocks(t, st, KindERPL, term, slices.Clone(entries))
	writeBlocks(t, st, KindERPL, "xmlx", randEntries(300, 32))
	writeBlocks(t, st, KindERPL, term, []RPLEntry{{Score: 2, SID: sid, Doc: 9999, End: 1, Length: 4}})
	for s, n := range perSID {
		if err := st.MarkBuilt(KindERPL, term, s, n, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MarkBuilt(KindERPL, "xmlx", s, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	beforeRows, beforeCatalog := snapshot(st.ERPLs), snapshot(st.Catalog)

	n, err := st.DropList(KindERPL, term, sid)
	if err != nil {
		t.Fatal(err)
	}
	if want := perSID[sid] + 1; n != want {
		t.Fatalf("dropped %d entries, want %d", n, want)
	}
	prefix := string(erplSIDPrefix(term, sid))
	var wantRows []row
	for _, r := range beforeRows {
		if !strings.HasPrefix(r.k, prefix) {
			wantRows = append(wantRows, r)
		}
	}
	if len(wantRows) == len(beforeRows) {
		t.Fatal("fixture: the sid has no rows")
	}
	if got := snapshot(st.ERPLs); !slices.Equal(got, wantRows) {
		t.Fatalf("%d rows survive the drop, want %d byte-identical rows", len(got), len(wantRows))
	}
	dropped := string(catalogKey(KindERPL, term, sid))
	wantCatalog := slices.DeleteFunc(slices.Clone(beforeCatalog), func(r row) bool { return r.k == dropped })
	if got := snapshot(st.Catalog); !slices.Equal(got, wantCatalog) || len(wantCatalog) != len(beforeCatalog)-1 {
		t.Fatalf("catalog after the drop: %d records, want %d", len(got), len(wantCatalog))
	}
}

// TestDropAllListsCountsLikePerListDrops: the one-pass drop reports the
// entry count the per-list drops add up to — over block rows of several
// terms, a one-sid list and an empty one — and leaves both list trees and
// the catalog empty.
func TestDropAllListsCountsLikePerListDrops(t *testing.T) {
	build := func() *Store {
		st := openEmptyStore(t)
		for ti, term := range []string{"xml", "index", "query"} {
			entries := randEntries(300+150*ti, int64(13+ti))
			perSID := make(map[uint32]int)
			for _, e := range entries {
				perSID[e.SID]++
			}
			for _, kind := range []ListKind{KindRPL, KindERPL} {
				writeBlocks(t, st, kind, term, append([]RPLEntry(nil), entries...))
				for sid, n := range perSID {
					if err := st.MarkBuilt(kind, term, sid, n, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// A one-sid list and a list that was built empty.
		single := randEntries(20, 99)
		for i := range single {
			single[i].SID = 9
		}
		for _, kind := range []ListKind{KindRPL, KindERPL} {
			writeBlocks(t, st, kind, "single", slices.Clone(single))
			if err := st.MarkBuilt(kind, "single", 9, 20, 0); err != nil {
				t.Fatal(err)
			}
			if err := st.MarkBuilt(kind, "absent", 3, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	perList := build()
	catalog, err := perList.CatalogEntries()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range catalog {
		n, err := perList.DropList(e.Kind, e.Term, e.SID)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	st := build()
	got, err := DropAllLists(st)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("DropAllLists dropped %d entries, per-list drops %d", got, want)
	}
	for _, s := range []*Store{perList, st} {
		for name, tree := range map[string]*storage.Tree{"RPLs": s.RPLs, "ERPLs": s.ERPLs, "Catalog": s.Catalog} {
			if n, err := tree.Len(); err != nil || n != 0 {
				t.Fatalf("%s holds %d rows after the drop (err %v)", name, n, err)
			}
		}
	}
	if n, err := DropAllLists(st); err != nil || n != 0 {
		t.Fatalf("second DropAllLists = (%d, %v), want (0, nil)", n, err)
	}
}
