package index

import (
	"reflect"
	"testing"

	"trex/internal/storage"
)

func openEmptyStore(t testing.TB) *Store {
	t.Helper()
	db := storage.OpenMemory()
	t.Cleanup(func() { db.Close() })
	st, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRPLIteratorDescendingScores(t *testing.T) {
	st := openEmptyStore(t)
	entries := []RPLEntry{
		{Score: 1.0, SID: 1, Doc: 1, End: 100, Length: 50},
		{Score: 5.0, SID: 2, Doc: 1, End: 200, Length: 60},
		{Score: 3.0, SID: 1, Doc: 2, End: 300, Length: 70},
		{Score: 0.5, SID: 3, Doc: 2, End: 400, Length: 80},
	}
	writeBlocks(t, st, KindRPL, "xml", entries)
	// A different term's entries must not leak in.
	writeBlocks(t, st, KindRPL, "other", []RPLEntry{{Score: 99, SID: 1, Doc: 1, End: 1}})
	it := NewRPLIterator(st, "xml")
	var scores []float64
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		scores = append(scores, e.Score)
	}
	want := []float64{5.0, 3.0, 1.0, 0.5}
	if len(scores) != len(want) {
		t.Fatalf("scores = %v, want %v", scores, want)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("scores = %v, want %v", scores, want)
		}
	}
	if it.Reads != 4 {
		t.Fatalf("Reads = %d, want 4", it.Reads)
	}
	// Post-end Next stays exhausted.
	if _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("post-end Next = %v, %v", ok, err)
	}
}

func TestRPLIteratorEmpty(t *testing.T) {
	st := openEmptyStore(t)
	it := NewRPLIterator(st, "nothing")
	if _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("empty Next = %v, %v", ok, err)
	}
}

func TestERPLIteratorPositionOrderPerSID(t *testing.T) {
	st := openEmptyStore(t)
	entries := []RPLEntry{
		{Score: 1, SID: 7, Doc: 2, End: 50},
		{Score: 2, SID: 7, Doc: 1, End: 900},
		{Score: 3, SID: 7, Doc: 1, End: 30},
		{Score: 4, SID: 8, Doc: 0, End: 10}, // other sid, filtered out
	}
	writeBlocks(t, st, KindERPL, "q", entries)
	it := NewERPLIterator(st, "q", 7)
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
	if len(got) != 3 {
		t.Fatalf("got %d entries, want 3", len(got))
	}
	if got[0].End != 30 || got[1].End != 900 || got[2].Doc != 2 {
		t.Fatalf("order = %+v", got)
	}
}

// TestTermERPLMergesAcrossSIDs reads a term's ERPL across a sid set the
// way Merge does: one ERPLIterator Reset onto each sid's segment in turn.
// Each segment comes out in position order — the second starts below the
// first one's end, so Reset must forget the row floor — and an entry of a
// sid outside the set never does.
func TestTermERPLMergesAcrossSIDs(t *testing.T) {
	st := openEmptyStore(t)
	// Three sids with interleaved positions.
	puts := []RPLEntry{
		{Score: 1, SID: 1, Doc: 0, End: 10},
		{Score: 2, SID: 1, Doc: 0, End: 400},
		{Score: 3, SID: 2, Doc: 0, End: 50},
		{Score: 4, SID: 2, Doc: 1, End: 5},
		{Score: 5, SID: 3, Doc: 0, End: 200},
		{Score: 6, SID: 4, Doc: 0, End: 1}, // not in the query's sid set
	}
	writeBlocks(t, st, KindERPL, "t", puts)
	var it ERPLIterator
	var got []RPLEntry
	for _, sid := range []uint32{1, 2, 3} {
		it.Reset(st, "t", sid)
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
	}
	if want := puts[:5]; !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
	if it.RowsRead != 3 {
		t.Fatalf("RowsRead = %d across three one-row segments", it.RowsRead)
	}
}

// TestTermERPLEmptySIDSet: a term's ERPL over sids that hold none of it
// yields nothing, from a zero iterator and from one Reset off a segment it
// had not finished.
func TestTermERPLEmptySIDSet(t *testing.T) {
	st := openEmptyStore(t)
	writeBlocks(t, st, KindERPL, "t", []RPLEntry{{Score: 1, SID: 1, Doc: 0, End: 10}, {Score: 1, SID: 1, Doc: 0, End: 20}})
	var it ERPLIterator
	for _, probe := range []struct {
		term string
		sid  uint32
	}{{"t", 2}, {"t", 1}, {"u", 1}, {"t", 3}} {
		it.Reset(st, probe.term, probe.sid)
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if probe.term == "t" && probe.sid == 1 {
			if !ok || e.End != 10 {
				t.Fatalf("(t, 1) Next = %+v, %v", e, ok)
			}
			continue // leave the segment half read
		}
		if ok {
			t.Fatalf("(%s, %d) Next = %+v on an empty segment", probe.term, probe.sid, e)
		}
	}
}

func TestCatalog(t *testing.T) {
	st := openEmptyStore(t)
	ok, err := st.IsBuilt(KindRPL, "xml", 7)
	if err != nil || ok {
		t.Fatalf("IsBuilt before = %v, %v", ok, err)
	}
	if err := st.MarkBuilt(KindRPL, "xml", 7, 150, 4096); err != nil {
		t.Fatal(err)
	}
	ok, err = st.IsBuilt(KindRPL, "xml", 7)
	if err != nil || !ok {
		t.Fatalf("IsBuilt after = %v, %v", ok, err)
	}
	// Different kind, term, or sid remains unbuilt.
	for _, probe := range []struct {
		kind ListKind
		term string
		sid  uint32
	}{
		{KindERPL, "xml", 7},
		{KindRPL, "xmlx", 7},
		{KindRPL, "xml", 8},
	} {
		ok, err := st.IsBuilt(probe.kind, probe.term, probe.sid)
		if err != nil || ok {
			t.Fatalf("IsBuilt(%v,%q,%d) = %v, %v", probe.kind, probe.term, probe.sid, ok, err)
		}
	}
	n, b, err := st.BuiltSize(KindRPL, "xml", 7)
	if err != nil || n != 150 || b != 4096 {
		t.Fatalf("BuiltSize = %d, %d, %v", n, b, err)
	}
	if n, b, err := st.BuiltSize(KindRPL, "nope", 1); err != nil || n != 0 || b != 0 {
		t.Fatalf("BuiltSize missing = %d, %d, %v", n, b, err)
	}
	// Coverage requires the full cross product.
	if err := st.MarkBuilt(KindRPL, "query", 7, 10, 100); err != nil {
		t.Fatal(err)
	}
	cov, err := st.Covered(KindRPL, []string{"xml", "query"}, []uint32{7})
	if err != nil || !cov {
		t.Fatalf("Covered = %v, %v", cov, err)
	}
	cov, err = st.Covered(KindRPL, []string{"xml", "query"}, []uint32{7, 8})
	if err != nil || cov {
		t.Fatalf("partial Covered = %v, %v", cov, err)
	}
	if KindRPL.String() != "RPL" || KindERPL.String() != "ERPL" {
		t.Fatalf("kind strings: %s, %s", KindRPL, KindERPL)
	}
}
