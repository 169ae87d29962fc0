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

func sameRanking(t *testing.T, label string, want, got []Scored) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Elem != got[i].Elem || want[i].Score != got[i].Score {
			t.Fatalf("%s rank %d: %v/%v, want %v/%v",
				label, i, got[i].Elem, got[i].Score, want[i].Elem, want[i].Score)
		}
	}
}

// TestCrossVersionEquivalence is the acceptance check for the block
// encoding: TA, NRA, and Merge must return byte-identical rankings over a
// v1 (row-per-entry) store, a v2 (block-encoded) store, and a store mixing
// both formats — with no score tolerance, since the codecs round-trip
// scores exactly and the stopping bounds (BlockMaxScore) are
// format-independent.
func TestCrossVersionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4858))
	for trial := 0; trial < 8; trial++ {
		col := genRandomCollection(rng, 6+rng.Intn(8))
		sids := []uint32{1, 2, 3, 4, 5}
		terms := []string{"ax", "bx", "cx"}

		v1 := buildStore(t, col, sids, terms, func(st *index.Store, sids []uint32, terms []string) error {
			sc, err := st.NewScorer(terms)
			if err != nil {
				return err
			}
			_, err = MaterializeV1(st, sids, terms, sc, index.KindRPL, index.KindERPL)
			return err
		})
		v2 := buildStore(t, col, sids, terms, func(st *index.Store, sids []uint32, terms []string) error {
			sc, err := st.NewScorer(terms)
			if err != nil {
				return err
			}
			_, err = Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL)
			return err
		})
		// Mixed: one term's lists in each format; v1 and v2 rows share the
		// trees and must interleave cleanly.
		mixed := buildStore(t, col, sids, terms, func(st *index.Store, sids []uint32, terms []string) error {
			sc, err := st.NewScorer(terms)
			if err != nil {
				return err
			}
			for j, term := range terms {
				var merr error
				if j%2 == 0 {
					_, merr = MaterializeV1(st, sids, []string{term}, sc, index.KindRPL, index.KindERPL)
				} else {
					_, merr = Materialize(st, sids, []string{term}, sc, index.KindRPL, index.KindERPL)
				}
				if merr != nil {
					return merr
				}
			}
			return nil
		})

		scv1, err := v1.NewScorer(terms)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 10, 0} {
			base, _, err := ExhaustiveTopKCtx(context.Background(), v1, sids, terms, scv1, k)
			if err != nil {
				t.Fatal(err)
			}
			for name, st := range map[string]*index.Store{"v1": v1, "v2": v2, "mixed": mixed} {
				sc, err := st.NewScorer(terms)
				if err != nil {
					t.Fatal(err)
				}
				kk := k
				if kk == 0 {
					kk = 1 << 20
				}
				ta, _, err := TACtx(context.Background(), st, sids, terms, sc, kk)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, name+"/ta", base, ta)
				nra, _, err := NRACtx(context.Background(), st, sids, terms, kk)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, name+"/nra", base, nra)
				mrg, _, err := MergeCtx(context.Background(), st, sids, terms, kk)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, name+"/merge", base, mrg)
			}
		}
	}
}

// TestMergeSkipsOverBlocks is the acceptance criterion that block skipping
// is observable: over a v2 store, Merge must fetch far fewer storage rows
// than there are entries (CursorSteps counts rows, not entries) and must
// drain some entries in bulk (BlockSkips > 0) whenever lists are skewed.
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
// for freshly built v2 stores, since per-entry attribution sums to the
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
