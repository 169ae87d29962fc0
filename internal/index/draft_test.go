package index

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestMergeRPLRowsMatchesSort: a term's rows from several builds, whose
// runs interleave in key order, merge into exactly the entries a sort of
// their concatenation gives, less the dropped sids'. Applied through a
// draft — one run committed, the others built into the draft over other
// sids — the rows Apply writes are byte-identical to the encoder's output
// over the sorted entries the term keeps.
func TestMergeRPLRowsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 40; c++ {
		runs := 2 + c%3
		var rows []ListRow
		var all []RPLEntry
		st := openEmptyStore(t)
		d := NewListDraft(st)
		for run := 0; run < runs; run++ {
			sids := []uint32{uint32(3*run + 1), uint32(3*run + 2), uint32(3*run + 3)}
			var es []RPLEntry
			for i := rng.Intn(700); i >= 0; i-- {
				es = append(es, RPLEntry{
					Score: float64(rng.Intn(50)) / 7, // ties: the (sid, doc, end) tie-break orders many
					SID:   sids[rng.Intn(3)], Doc: uint32(rng.Intn(300)), End: uint32(rng.Intn(1 << 20)), Length: 3,
				})
			}
			SortRPLEntriesScoreOrder(es)
			es = slices.CompactFunc(es, func(a, b RPLEntry) bool { return compareRPLEntries(a, b) == 0 })
			all = append(all, es...)
			built := EncodeRPLBlocks("t", es)
			rows = append(rows, built...)
			if run == 0 {
				if err := st.WriteListRows(KindRPL, built); err != nil {
					t.Fatal(err)
				}
				continue
			}
			b := &ListBuild{Terms: []string{"t"}, Rows: []TermRows{{RPL: built}}, SIDs: sids, RPL: true}
			if err := d.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		slices.SortFunc(rows, func(a, b ListRow) int { return bytes.Compare(a.Key, b.Key) })
		dropSIDs := []uint32{uint32(1 + c%(3*runs)), uint32(1 + (c*7)%(3*runs))}
		drop := map[uint32]bool{dropSIDs[0]: true, dropSIDs[1]: true}

		got, dropped, err := mergeRPLRows(rows, drop)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(slices.Clone(all), func(e RPLEntry) bool { return drop[e.SID] })
		SortRPLEntriesScoreOrder(want)
		if !slices.Equal(got, want) || dropped != len(all)-len(want) {
			t.Fatalf("case %d: merged %d entries, dropped %d; sorting gives %d, dropping %d",
				c, len(got), dropped, len(want), len(all)-len(want))
		}

		var drops []ListID
		for sid := range drop {
			drops = append(drops, ListID{Kind: KindRPL, Term: "t", SID: sid})
		}
		if n, err := d.Apply(drops); err != nil || n != dropped {
			t.Fatalf("case %d: Apply = %d, %v; want %d dropped", c, n, err, dropped)
		}
		wantRows := EncodeRPLBlocks("t", want)
		cur := st.RPLs.Cursor()
		prefix := termPrefix("t")
		i := 0
		ok, err := cur.SeekPrefix(prefix)
		for ; ok; ok, err = cur.NextPrefix(prefix) {
			if i >= len(wantRows) || !bytes.Equal(cur.Key(), wantRows[i].Key) || !bytes.Equal(cur.Value(), wantRows[i].Value) {
				t.Fatalf("case %d: written row %d differs from the encoder's over the sorted entries", c, i)
			}
			i++
		}
		if err != nil {
			t.Fatal(err)
		}
		if i != len(wantRows) {
			t.Fatalf("case %d: %d rows written, want %d", c, i, len(wantRows))
		}
	}
}
