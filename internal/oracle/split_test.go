package oracle

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"trex/internal/index"
)

// TestSplitStoreInterleavesAndReencodes shows the "split" store drives
// what the RPL iterator's merge and dropRPL's re-encode exist for. Over
// the sweep's cases it must, somewhere:
//   - hold an RPL block of the second run whose score range holds an entry
//     of another block: a block of the second run's sids is a run of
//     consecutive second-run entries in the list's order, from its key's
//     entry to the entry before the next such key, so an entry of another
//     sid between two of its entries lies in a block that overlaps it;
//   - hold an RPL block that the first run alone does not write and whose
//     first entry is not of a second-run sid: a survivor block re-encoded
//     by the drop of the shared sid.
//
// A block's key is its first entry: term \0 ir(8) sid(4) doc(4) end(4).
func TestSplitStoreInterleavesAndReencodes(t *testing.T) {
	interleaved, reencoded := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		c := NewCase(rand.New(rand.NewSource(seed)), seed)
		runs := splitRuns(c.SIDs)
		split, closeSplit, err := buildCaseStore(c, "split")
		if err != nil {
			t.Fatal(err)
		}
		first := c
		first.SIDs = runs[0]
		alone, closeAlone, err := buildCaseStore(first, "v2")
		if err != nil {
			t.Fatal(err)
		}
		firstRows := make(map[[2]string]bool)
		for _, r := range rplRows(t, alone) {
			firstRows[r] = true
		}
		keys := make(map[string]bool)
		for _, r := range rplRows(t, split) {
			sid := binary.BigEndian.Uint32([]byte(r[0][len(r[0])-12:]))
			if slices.Contains(runs[1], sid) {
				keys[r[0]] = true
			} else if !firstRows[r] {
				reencoded++
			}
		}
		for _, term := range c.Terms {
			it := index.NewRPLIterator(split, term)
			inBlock, between := false, false
			for {
				e, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				switch {
				case !slices.Contains(runs[1], e.SID):
					between = between || inBlock
				case keys[rplKeyOf(term, e)]:
					inBlock, between = true, false
				case between:
					interleaved++
					between = false
				}
			}
		}
		closeAlone()
		closeSplit()
	}
	if interleaved == 0 || reencoded == 0 {
		t.Fatalf("split stores: %d overlapping blocks, %d re-encoded survivor blocks; want both > 0", interleaved, reencoded)
	}
}

// rplKeyOf is the RPL key of a block whose first entry is e.
func rplKeyOf(term string, e index.RPLEntry) string {
	k := append([]byte(term), 0)
	k = binary.BigEndian.AppendUint64(k, ^math.Float64bits(e.Score))
	k = binary.BigEndian.AppendUint32(k, e.SID)
	k = binary.BigEndian.AppendUint32(k, e.Doc)
	return string(binary.BigEndian.AppendUint32(k, e.End))
}

// rplRows returns every (key, value) row of the store's RPL tree.
func rplRows(t *testing.T, st *index.Store) [][2]string {
	t.Helper()
	var out [][2]string
	cur := st.RPLs.Cursor()
	ok, err := cur.First()
	for ; ok; ok, err = cur.Next() {
		out = append(out, [2]string{string(cur.Key()), string(cur.Value())})
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}
