package retrieval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/score"
	"trex/internal/storage"
	"trex/internal/summary"
)

// referenceMaterialize is Materialize as it was before the linear build,
// kept here as its specification: entries scored through sc.Score in ERA's
// emission order, each list comparison-sorted into its key order (score
// descending, then sid, doc, end; or sid, doc, end), byte shares summed
// entry by entry in a (term, sid) map.
func referenceMaterialize(st *index.Store, sids []uint32, terms []string, sc *score.Scorer, kinds ...index.ListKind) (*MaterializeStats, error) {
	wantRPL, wantERPL, err := WantKinds(kinds)
	if err != nil {
		return nil, err
	}
	for _, t := range terms {
		for _, sid := range sids {
			for _, kind := range kinds {
				if built, err := st.IsBuilt(kind, t, sid); err != nil {
					return nil, err
				} else if built {
					if _, err := st.DropList(kind, t, sid); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	rows, _, err := ERACtx(context.Background(), st, sids, terms)
	if err != nil {
		return nil, err
	}
	entries := make([][]index.RPLEntry, len(terms))
	for _, r := range rows {
		for j, t := range terms {
			if r.TF[j] != 0 {
				entries[j] = append(entries[j], index.RPLEntry{
					Score: sc.Score(t, r.TF[j], int(r.Elem.Length)),
					SID:   r.Elem.SID, Doc: r.Elem.Doc, End: r.Elem.End, Length: r.Elem.Length,
				})
			}
		}
	}
	type pairKey struct {
		term string
		sid  uint32
	}
	counts := map[index.ListKind]map[pairKey]int{index.KindRPL: {}, index.KindERPL: {}}
	sizes := map[index.ListKind]map[pairKey]int64{index.KindRPL: {}, index.KindERPL: {}}
	ms := &MaterializeStats{}
	var rplRows, erplRows []index.ListRow
	for j, t := range terms {
		for _, k := range []struct {
			kind  index.ListKind
			want  bool
			order func(a, b index.RPLEntry) int
			enc   func(string, []index.RPLEntry) []index.ListRow
			rows  *[]index.ListRow
		}{
			{index.KindRPL, wantRPL, scoreOrder, index.EncodeRPLBlocks, &rplRows},
			{index.KindERPL, wantERPL, positionOrder, index.EncodeERPLBlocks, &erplRows},
		} {
			if !k.want {
				continue
			}
			list := slices.Clone(entries[j])
			slices.SortFunc(list, k.order)
			for _, r := range k.enc(t, list) {
				for i, e := range r.Entries {
					counts[k.kind][pairKey{t, e.SID}]++
					sizes[k.kind][pairKey{t, e.SID}] += int64(r.EntryBytes[i])
				}
				*k.rows = append(*k.rows, r)
			}
		}
	}
	if wantRPL {
		if err := st.WriteListRows(index.KindRPL, rplRows); err != nil {
			return nil, err
		}
		ms.RPLRows, ms.RPLBytes = len(rplRows), rowBytes(rplRows)
		for _, r := range rplRows {
			ms.RPLEntries += len(r.Entries)
		}
	}
	if wantERPL {
		if err := st.WriteListRows(index.KindERPL, erplRows); err != nil {
			return nil, err
		}
		ms.ERPLRows, ms.ERPLBytes = len(erplRows), rowBytes(erplRows)
		for _, r := range erplRows {
			ms.ERPLEntries += len(r.Entries)
		}
	}
	for _, t := range terms {
		for _, sid := range sids {
			for _, kind := range []index.ListKind{index.KindRPL, index.KindERPL} {
				if (kind == index.KindRPL && !wantRPL) || (kind == index.KindERPL && !wantERPL) {
					continue
				}
				pk := pairKey{t, sid}
				if err := st.MarkBuilt(kind, t, sid, counts[kind][pk], sizes[kind][pk]); err != nil {
					return nil, err
				}
			}
		}
	}
	return ms, nil
}

// positionOrder is ERPL key order: (sid, doc, end) ascending.
func positionOrder(a, b index.RPLEntry) int {
	if c := cmp.Compare(a.SID, b.SID); c != 0 {
		return c
	}
	return index.CompareDocEnd(a.Doc, a.End, b.Doc, b.End)
}

// scoreOrder is RPL key order for positive scores: score descending, then
// (sid, doc, end).
func scoreOrder(a, b index.RPLEntry) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return positionOrder(a, b)
}

// materializeStore builds the collection's base tables under model into a
// fresh in-memory store.
func materializeStore(t *testing.T, col *corpus.Collection, model score.Model) (*index.Store, *summary.Summary) {
	t.Helper()
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming, Aliases: col.Aliases})
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
	if err := st.PutScoringModel(model); err != nil {
		t.Fatal(err)
	}
	return st, sum
}

// treeRows is every (key, value) of a tree, in key order.
func treeRows(t *testing.T, tree *storage.Tree) []string {
	t.Helper()
	var out []string
	c := tree.Cursor()
	ok, err := c.First()
	for ; ok; ok, err = c.Next() {
		out = append(out, fmt.Sprintf("%x=%x", c.Key(), c.Value()))
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tieCollection has many elements with equal (tf, length) pairs, under
// several sids and across documents: their scores tie exactly, so the
// (sid, doc, end) tie-break decides every RPL position.
func tieCollection(docs int) *corpus.Collection {
	col := &corpus.Collection{}
	for d := 0; d < docs; d++ {
		var sb strings.Builder
		sb.WriteString("<a>")
		for i := 0; i < 6; i++ {
			sb.WriteString("<b>qq rr qq</b><c>qq rr qq</c>")
		}
		if d%3 == 0 {
			sb.WriteString("<b>rr</b>")
		}
		sb.WriteString("</a>")
		col.Docs = append(col.Docs, corpus.Document{ID: d, Data: []byte(sb.String())})
	}
	return col
}

// TestMaterializeMatchesSortedReference: the linear build writes the same
// RPL and ERPL rows, byte for byte, the same catalog records (entry counts
// and byte shares) and the same MaterializeStats as the comparison-sort
// build it replaced, on XML and JSON corpora under both scoring models;
// for sid lists given in random order with duplicates; with terms that
// have no entries; over heavy score ties; for each kind alone and both;
// and again after a rebuild over the built lists. It also holds ERA to the
// order the build relies on: every term's entries come out of the layout
// in position order and out of the radix sort in score order, so neither
// encoder's fallback sort runs.
func TestMaterializeMatchesSortedReference(t *testing.T) {
	fixtures := []struct {
		name  string
		col   *corpus.Collection
		terms []string
	}{
		{"ieee", corpus.GenerateIEEE(40, 3), []string{"model", "checking", "ontologies", "case", "qqnotaword"}},
		{"json", corpus.GenerateJSON(60, 5), []string{"timeout", "connection", "payment", "qqnotaword"}},
		{"ties", tieCollection(30), []string{"qq", "rr", "qqnotaword"}},
	}
	kindSets := [][]index.ListKind{
		{index.KindRPL, index.KindERPL},
		{index.KindRPL},
		{index.KindERPL},
	}
	rng := rand.New(rand.NewSource(2007))
	for _, fx := range fixtures {
		for _, model := range []score.Model{score.ModelBM25, score.ModelLMDirichlet} {
			got, sum := materializeStore(t, fx.col, model)
			want, _ := materializeStore(t, fx.col, model)
			for trial := 0; trial < 4; trial++ {
				// A random subset of the summary's sids, shuffled, with repeats.
				var sids []uint32
				for _, n := range sum.Nodes {
					if trial == 0 || rng.Intn(3) > 0 {
						sids = append(sids, uint32(n.SID))
					}
				}
				for i := rng.Intn(3); i > 0 && len(sids) > 0; i-- {
					sids = append(sids, sids[rng.Intn(len(sids))])
				}
				rng.Shuffle(len(sids), func(i, j int) { sids[i], sids[j] = sids[j], sids[i] })
				kinds := kindSets[trial%len(kindSets)]
				label := fmt.Sprintf("%s/%v/trial %d/kinds %v", fx.name, model, trial, kinds)

				sc, err := got.NewScorer(fx.terms)
				if err != nil {
					t.Fatal(err)
				}
				rows, _, err := ERACtx(context.Background(), got, sids, fx.terms)
				if err != nil {
					t.Fatal(err)
				}
				p := layOutPairs(rows, sids, fx.terms, sc)
				for j, term := range fx.terms {
					lo, hi := p.bounds(j)
					list := p.entries[lo:hi]
					if !slices.IsSortedFunc(list, positionOrder) {
						t.Fatalf("%s: term %q laid out out of position order", label, term)
					}
					ranked, scratch := make([]index.RPLEntry, len(list)), make([]index.RPLEntry, len(list))
					if index.RadixScoreOrder(ranked, scratch, list); !slices.IsSortedFunc(ranked, scoreOrder) {
						t.Fatalf("%s: term %q radix-sorted out of score order", label, term)
					}
				}

				// Twice: the second build drops the lists the first one wrote.
				for round := 0; round < 2; round++ {
					gotMS, err := Materialize(got, sids, fx.terms, sc, kinds...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wantMS, err := referenceMaterialize(want, sids, fx.terms, sc, kinds...)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					if gotMS.ERA == nil {
						t.Fatalf("%s: no ERA stats", label)
					}
					gotMS.ERA = nil
					if *gotMS != *wantMS {
						t.Fatalf("%s round %d: stats %+v, reference %+v", label, round, *gotMS, *wantMS)
					}
					for name, trees := range map[string][2]*storage.Tree{
						"RPLs":    {got.RPLs, want.RPLs},
						"ERPLs":   {got.ERPLs, want.ERPLs},
						"Catalog": {got.Catalog, want.Catalog},
					} {
						g, w := treeRows(t, trees[0]), treeRows(t, trees[1])
						if !slices.Equal(g, w) {
							t.Fatalf("%s round %d: %s differ: %d rows, reference %d", label, round, name, len(g), len(w))
						}
					}
				}
			}
			if n, err := got.ERPLs.Len(); err != nil || n == 0 {
				t.Fatalf("%s/%v: fixture wrote no ERPL rows (%v)", fx.name, model, err)
			}
		}
	}
}

// TestMaterializeRejectsNoKinds: asking for no list kind is an error
// before the store is touched: no page is read or written and no list is
// marked built.
func TestMaterializeRejectsNoKinds(t *testing.T) {
	e := handEnv(t, `<a><b>apple banana</b></a>`)
	sids, terms := e.clause(t, `//a//b[about(., apple)]`, 0)
	sc := e.scorer(t, terms)
	before := e.store.IOStats()
	for _, kinds := range [][]index.ListKind{nil, {}, {index.ListKind('X')}} {
		ms, err := Materialize(e.store, sids, terms, sc, kinds...)
		if !errors.Is(err, ErrNoListKinds) || ms != nil {
			t.Fatalf("kinds %v: (%v, %v), want ErrNoListKinds", kinds, ms, err)
		}
	}
	d := e.store.IOStats().Sub(before).Storage
	if d.CacheHits+d.CacheMisses != 0 || d.Puts != 0 || d.PagesWritten != 0 {
		t.Fatalf("a rejected materialization touched the store: %+v", d)
	}
	if n, err := e.store.Catalog.Len(); err != nil || n != 0 {
		t.Fatalf("catalog holds %d records (%v)", n, err)
	}
}

// TestMaterializeAllocationCeiling guards the build on a fixed fixture: 60
// IEEE documents, all 45 sids, five terms, both kinds, into emptied list
// trees. The comparison-sort build made 3,826 allocations here; the linear
// build makes 3,094. Most of both are the catalog's — 450 IsBuilt probes
// and 450 MarkBuilt records — and the bulk loader's copies. The rest went
// on each term's growing entry slices, a copy of every row's entries per
// kind and the pair maps, and now goes on one slice for all entries, the
// radix buffers, and each row's key, value and share of one byte-share
// slab.
func TestMaterializeAllocationCeiling(t *testing.T) {
	st, sum := materializeStore(t, corpus.GenerateIEEE(60, 11), score.ModelBM25)
	var sids []uint32
	for _, n := range sum.Nodes {
		sids = append(sids, uint32(n.SID))
	}
	terms := []string{"model", "checking", "state", "space", "explosion"}
	sc, err := st.NewScorer(terms)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 3300
	// As testing.AllocsPerRun counts, but with the lists dropped outside
	// the count before each build, as a commit drops them before a re-plan.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs uint64
	const runs = 3
	for i := 0; i <= runs; i++ {
		if _, err := index.DropAllLists(st); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Materialize(st, sids, terms, sc, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 { // the first build warms up
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if allocs := mallocs / runs; allocs > ceiling {
		t.Fatalf("Materialize allocates %d times per build, ceiling %d", allocs, ceiling)
	}
}
