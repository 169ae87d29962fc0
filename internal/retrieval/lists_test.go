package retrieval

import (
	"context"
	"math/rand"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/storage"
	"trex/internal/summary"
)

// buildStore parses the collection into a fresh in-memory store and
// materializes the clause's lists with the given materializer.
func buildStore(t *testing.T, col *corpus.Collection, sids []uint32, terms []string,
	mat func(*index.Store, []uint32, []string) error) *index.Store {
	t.Helper()
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.OpenMemory()
	t.Cleanup(func() { db.Close() })
	st, err := index.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.BuildBase(st, col, sum); err != nil {
		t.Fatal(err)
	}
	if err := mat(st, sids, terms); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMergeSkipsOverBlocks is the acceptance criterion that block skipping
// is observable: Merge must fetch far fewer storage rows than there are
// entries (CursorSteps counts rows, not entries) and must drain some
// entries in bulk (BlockSkips > 0) whenever lists are skewed.
func TestMergeSkipsOverBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	col := genRandomCollection(rng, 400)
	sids := []uint32{1, 2, 3, 4, 5}
	terms := []string{"ax", "bx"}
	st := buildStore(t, col, sids, terms, func(st *index.Store, sids []uint32, terms []string) error {
		sc, err := st.NewScorer(terms)
		if err != nil {
			return err
		}
		_, err = Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL)
		return err
	})
	_, stats, err := MergeCtx(context.Background(), st, sids, terms, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range stats.ListTotals {
		total += n
	}
	if total < 200 {
		t.Fatalf("corpus too small to be meaningful: %d entries", total)
	}
	if stats.CursorSteps >= total {
		t.Fatalf("CursorSteps %d >= %d entries: no block batching observed", stats.CursorSteps, total)
	}
	if stats.BlockSkips == 0 {
		t.Fatal("BlockSkips = 0: the solo fast path never engaged")
	}
	// PageReads counts logical page touches, so it must be non-zero even
	// on a fully cached in-memory store; BytesRead counts physical misses
	// and is legitimately zero here.
	if stats.PageReads == 0 {
		t.Fatal("PageReads = 0: captureIO recorded nothing")
	}
}

// TestCatalogBytesMatchEncodedSize is the advisor-accuracy regression: the
// catalog's per-list byte accounting must agree with the actual on-disk
// key+value footprint of the RPL and ERPL trees to within 5% (it is exact
// for freshly built stores, since per-entry attribution sums to the
// row footprint).
func TestCatalogBytesMatchEncodedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	col := genRandomCollection(rng, 30)
	sids := []uint32{1, 2, 3, 4, 5}
	terms := []string{"ax", "bx", "cx", "dx", "ex"}
	st := buildStore(t, col, sids, terms, func(st *index.Store, sids []uint32, terms []string) error {
		sc, err := st.NewScorer(terms)
		if err != nil {
			return err
		}
		_, err = Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL)
		return err
	})
	for kind, tree := range map[index.ListKind]*storage.Tree{
		index.KindRPL:  st.RPLs,
		index.KindERPL: st.ERPLs,
	} {
		var actual int64
		c := tree.Cursor()
		ok, err := c.First()
		for ok && err == nil {
			actual += int64(len(c.Key()) + len(c.Value()))
			ok, err = c.Next()
		}
		if err != nil {
			t.Fatal(err)
		}
		var recorded int64
		for _, term := range terms {
			for _, sid := range sids {
				_, b, err := st.BuiltSize(kind, term, sid)
				if err != nil {
					t.Fatal(err)
				}
				recorded += b
			}
		}
		if actual == 0 {
			t.Fatalf("%v: empty tree", kind)
		}
		diff := recorded - actual
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(actual) {
			t.Fatalf("%v: catalog records %d bytes, actual %d (off by %.1f%%)",
				kind, recorded, actual, 100*float64(diff)/float64(actual))
		}
	}
}
