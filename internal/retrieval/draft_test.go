package retrieval

import (
	"fmt"
	"slices"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/score"
)

// listsOf renders every list a store presents for terms × sids: each
// term's RPL in iteration order, each (term, sid) ERPL, and both catalog
// records of every pair.
func listsOf(t *testing.T, st *index.Store, terms []string, sids []uint32) string {
	t.Helper()
	out := ""
	for _, term := range terms {
		it := index.NewRPLIterator(st, term)
		for {
			e, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out += fmt.Sprintf("R %s %+v\n", term, e)
		}
		for _, sid := range sids {
			it := index.NewERPLIterator(st, term, sid)
			for {
				e, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				out += fmt.Sprintf("E %s %+v\n", term, e)
			}
			for _, kind := range []index.ListKind{index.KindRPL, index.KindERPL} {
				built, err := st.IsBuilt(kind, term, sid)
				if err != nil {
					t.Fatal(err)
				}
				n, bytes, err := st.BuiltSize(kind, term, sid)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := st.ListStat(kind, term, sid)
				if err != nil {
					t.Fatal(err)
				}
				out += fmt.Sprintf("C %v %s %d %v %d %d %+v\n", kind, term, sid, built, n, bytes, ls)
			}
		}
	}
	return out
}

// TestListDraftMatchesDropThenWrite: builds put into a ListDraft present,
// through its view, exactly the lists and catalog records that
// materializing the same builds into the trees leaves — RPL entries in
// iteration order across runs, ERPLs, IsBuilt, BuiltSize and ListStat —
// while the draft's store is not written. Apply then leaves the same
// entries, the same catalog rows and the same ERPL rows as dropping the
// plan's drops one DropList at a time, and reports as many dropped
// entries. The builds overlap a committed clause and each other in terms
// and sids, and the drops mix drafted lists with committed ones the
// draft never touched.
func TestListDraftMatchesDropThenWrite(t *testing.T) {
	col := corpus.GenerateIEEE(40, 3)
	trees, sum := materializeStore(t, col, score.ModelBM25)
	drafted, _ := materializeStore(t, col, score.ModelBM25)
	var all []uint32
	for _, n := range sum.Nodes {
		all = append(all, uint32(n.SID))
	}
	if len(all) < 14 {
		t.Fatalf("fixture: %d sids", len(all))
	}
	type clause struct {
		sids  []uint32
		terms []string
	}
	committed := []clause{
		{all[0:6], []string{"ontologies", "case"}},
		{all[10:12], []string{"xml", "query"}},
	}
	builds := []clause{
		{all[3:10], []string{"ontologies", "model"}},
		{all[8:14], []string{"model", "checking", "case"}},
		{all[0:2], []string{"study"}},
	}
	terms := []string{"ontologies", "case", "model", "checking", "study", "xml", "query"}
	sids := all[:14]
	materialize := func(st *index.Store, c clause) {
		t.Helper()
		sc, err := st.NewScorer(c.terms)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Materialize(st, c.sids, c.terms, sc, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range committed {
		materialize(trees, c)
		materialize(drafted, c)
	}
	rowsBefore := [][]string{treeRows(t, drafted.RPLs), treeRows(t, drafted.ERPLs), treeRows(t, drafted.Catalog)}

	d := index.NewListDraft(drafted)
	for i, c := range builds {
		materialize(trees, c)
		view := d.View()
		sc, err := view.NewScorer(c.terms)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := BuildLists(view, c.sids, c.terms, sc, index.KindRPL, index.KindERPL)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Add(b); err != nil {
			t.Fatal(err)
		}
		if got, want := listsOf(t, view, terms, sids), listsOf(t, trees, terms, sids); got != want {
			t.Fatalf("build %d: the draft's view differs from the trees:\n%s\nwant\n%s", i, got, want)
		}
	}
	rowsAfter := [][]string{treeRows(t, drafted.RPLs), treeRows(t, drafted.ERPLs), treeRows(t, drafted.Catalog)}
	for i := range rowsBefore {
		if !slices.Equal(rowsBefore[i], rowsAfter[i]) {
			t.Fatal("building into the draft wrote to the store")
		}
	}

	drops := []index.ListID{
		{Kind: index.KindRPL, Term: "ontologies", SID: all[4]}, // drafted, term copied from committed rows
		{Kind: index.KindERPL, Term: "model", SID: all[9]},     // drafted
		{Kind: index.KindRPL, Term: "ontologies", SID: all[1]}, // committed, in a drafted term
		{Kind: index.KindERPL, Term: "case", SID: all[2]},      // committed
		{Kind: index.KindRPL, Term: "xml", SID: all[10]},       // committed, in an undrafted term
		{Kind: index.KindERPL, Term: "query", SID: all[11]},    // committed, undrafted
	}
	want := 0
	for _, id := range drops {
		n, err := trees.DropList(id.Kind, id.Term, id.SID)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	got, err := d.Apply(drops)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want == 0 {
		t.Fatalf("Apply dropped %d entries, DropList %d", got, want)
	}
	if g, w := listsOf(t, drafted, terms, sids), listsOf(t, trees, terms, sids); g != w {
		t.Fatalf("applied lists differ from drop-then-write:\n%s\nwant\n%s", g, w)
	}
	if !slices.Equal(treeRows(t, drafted.Catalog), treeRows(t, trees.Catalog)) {
		t.Fatal("applied catalog differs from drop-then-write")
	}
	if !slices.Equal(treeRows(t, drafted.ERPLs), treeRows(t, trees.ERPLs)) {
		t.Fatal("applied ERPL rows differ from drop-then-write")
	}
}
