package index

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"trex/internal/corpus"
	"trex/internal/oracle/gen"
	"trex/internal/score"
	"trex/internal/storage"
	"trex/internal/summary"
	"trex/internal/xmlscan"
)

// buildTiny sets up a store over a hand-written collection.
func buildTiny(t *testing.T, docs ...string) (*Store, *summary.Summary, *corpus.Collection) {
	t.Helper()
	col := &corpus.Collection{}
	for i, d := range docs {
		col.Docs = append(col.Docs, corpus.Document{ID: i, Data: []byte(d)})
	}
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.OpenMemory()
	t.Cleanup(func() { db.Close() })
	st, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildBase(st, col, sum); err != nil {
		t.Fatal(err)
	}
	return st, sum, col
}

func sidOf(t *testing.T, sum *summary.Summary, path string) uint32 {
	t.Helper()
	for _, n := range sum.Nodes {
		if strings.Join(n.Path, "/") == path {
			return uint32(n.SID)
		}
	}
	t.Fatalf("no summary node for path %q", path)
	return 0
}

func TestBuildBaseCounts(t *testing.T) {
	col := corpus.GenerateIEEE(15, 2)
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming, Aliases: col.Aliases})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.OpenMemory()
	defer db.Close()
	st, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := BuildBase(st, col, sum)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Docs != 15 {
		t.Fatalf("Docs = %d", bs.Docs)
	}
	if bs.Elements != sum.TotalExtent() {
		t.Fatalf("Elements = %d, want %d", bs.Elements, sum.TotalExtent())
	}
	if bs.Terms < 100 || bs.Postings < 1000 {
		t.Fatalf("suspicious stats: %+v", bs)
	}
	if n, _ := st.Elements.Len(); n != bs.Elements {
		t.Fatalf("Elements rows = %d, want %d", n, bs.Elements)
	}
	cs, err := st.CollectionStats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumDocs != 15 || cs.NumElements != bs.Elements || cs.AvgElementLen <= 0 {
		t.Fatalf("CollectionStats = %+v", cs)
	}
	// BuildBase refuses to run twice.
	if _, err := BuildBase(st, col, sum); err == nil {
		t.Fatal("second BuildBase succeeded")
	}
}

func TestElementIterator(t *testing.T) {
	st, sum, _ := buildTiny(t,
		`<a><b>one two</b><b>three</b></a>`,
		`<a><b>four</b></a>`,
	)
	bsid := sidOf(t, sum, "a/b")
	it := NewElementIterator(st, bsid)
	e, err := it.FirstElement()
	if err != nil {
		t.Fatal(err)
	}
	var seen []Element
	for !e.IsDummy() {
		seen = append(seen, e)
		e, err = it.NextElementAfter(e.EndPos())
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("saw %d b-elements, want 3", len(seen))
	}
	// Order: doc 0 elements before doc 1; within doc ascending end.
	if seen[0].Doc != 0 || seen[1].Doc != 0 || seen[2].Doc != 1 {
		t.Fatalf("doc order = %d,%d,%d", seen[0].Doc, seen[1].Doc, seen[2].Doc)
	}
	if seen[0].End >= seen[1].End {
		t.Fatalf("end order broken: %d >= %d", seen[0].End, seen[1].End)
	}
	// All have the right sid.
	for _, e := range seen {
		if e.SID != bsid {
			t.Fatalf("element sid = %d, want %d", e.SID, bsid)
		}
	}
}

func TestElementIteratorEmptyExtent(t *testing.T) {
	st, _, _ := buildTiny(t, `<a><b>x</b></a>`)
	it := NewElementIterator(st, 999)
	e, err := it.FirstElement()
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsDummy() {
		t.Fatalf("expected dummy, got %+v", e)
	}
	e, err = it.NextElementAfter(Pos{Doc: 0, Off: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsDummy() {
		t.Fatalf("expected dummy, got %+v", e)
	}
}

func TestElementIteratorSkipsByPosition(t *testing.T) {
	st, sum, _ := buildTiny(t,
		`<a><b>one</b><b>two</b><b>three</b></a>`,
	)
	bsid := sidOf(t, sum, "a/b")
	it := NewElementIterator(st, bsid)
	first, err := it.FirstElement()
	if err != nil {
		t.Fatal(err)
	}
	// Jump past the second element directly from the first's position.
	second, err := it.NextElementAfter(first.EndPos())
	if err != nil {
		t.Fatal(err)
	}
	third, err := it.NextElementAfter(second.EndPos())
	if err != nil {
		t.Fatal(err)
	}
	if first.End >= second.End || second.End >= third.End {
		t.Fatalf("positions not increasing: %d, %d, %d", first.End, second.End, third.End)
	}
	after, err := it.NextElementAfter(third.EndPos())
	if err != nil {
		t.Fatal(err)
	}
	if !after.IsDummy() {
		t.Fatalf("expected dummy after last, got %+v", after)
	}
	// NextElementAfter(m-pos) is dummy.
	d, err := it.NextElementAfter(MaxPos)
	if err != nil || !d.IsDummy() {
		t.Fatalf("NextElementAfter(m-pos) = %+v, %v", d, err)
	}
}

func TestPostingIterator(t *testing.T) {
	st, _, col := buildTiny(t,
		`<a><b>alpha beta alpha</b></a>`,
		`<a><b>alpha</b></a>`,
	)
	it := NewPostingIterator(st, "alpha")
	var ps []Pos
	for {
		p, err := it.NextPosition()
		if err != nil {
			t.Fatal(err)
		}
		if p.IsMax() {
			break
		}
		ps = append(ps, p)
	}
	if len(ps) != 3 {
		t.Fatalf("alpha positions = %d, want 3", len(ps))
	}
	// Positions strictly increase.
	for i := 1; i < len(ps); i++ {
		if !ps[i-1].Less(ps[i]) {
			t.Fatalf("position order broken at %d", i)
		}
	}
	// Each position points at the token text.
	for _, p := range ps {
		data := col.Docs[p.Doc].Data
		if string(data[p.Off:p.Off+5]) != "alpha" {
			t.Fatalf("position %v points at %q", p, data[p.Off:p.Off+5])
		}
	}
	// Iterating past the end keeps returning m-pos.
	for i := 0; i < 3; i++ {
		p, err := it.NextPosition()
		if err != nil || !p.IsMax() {
			t.Fatalf("post-end NextPosition = %v, %v", p, err)
		}
	}
}

func TestPostingIteratorAbsentTerm(t *testing.T) {
	st, _, _ := buildTiny(t, `<a>hello</a>`)
	it := NewPostingIterator(st, "absent")
	p, err := it.NextPosition()
	if err != nil || !p.IsMax() {
		t.Fatalf("absent term NextPosition = %v, %v", p, err)
	}
}

func TestPostingFragmentation(t *testing.T) {
	// More than maxPostingsPerFragment occurrences of one term forces
	// multiple fragments; the iterator must cross them seamlessly.
	var sb strings.Builder
	sb.WriteString("<a>")
	const n = 3 * maxPostingsPerFragment
	for i := 0; i < n; i++ {
		sb.WriteString("zz ")
	}
	sb.WriteString("</a>")
	st, _, _ := buildTiny(t, sb.String())
	// At least 3 fragments must exist in the table.
	rows, err := st.Postings.Len()
	if err != nil {
		t.Fatal(err)
	}
	if rows < 3 {
		t.Fatalf("posting rows = %d, want >= 3", rows)
	}
	it := NewPostingIterator(st, "zz")
	count := 0
	for {
		p, err := it.NextPosition()
		if err != nil {
			t.Fatal(err)
		}
		if p.IsMax() {
			break
		}
		count++
	}
	if count != n {
		t.Fatalf("iterated %d positions, want %d", count, n)
	}
}

func TestTermStats(t *testing.T) {
	st, _, _ := buildTiny(t,
		`<a>xx yy xx</a>`,
		`<a>xx zz</a>`,
	)
	df, err := st.TermDF("xx")
	if err != nil || df != 2 {
		t.Fatalf("DF(xx) = %d, %v; want 2", df, err)
	}
	cf, err := st.TermCF("xx")
	if err != nil || cf != 3 {
		t.Fatalf("CF(xx) = %d, %v; want 3", cf, err)
	}
	df, err = st.TermDF("zz")
	if err != nil || df != 1 {
		t.Fatalf("DF(zz) = %d, %v; want 1", df, err)
	}
	df, err = st.TermDF("absent")
	if err != nil || df != 0 {
		t.Fatalf("DF(absent) = %d, %v; want 0", df, err)
	}
	sc, err := st.NewScorer([]string{"xx", "zz"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.IDF("zz") <= sc.IDF("xx") {
		t.Fatal("rarer term must have higher IDF")
	}
}

func TestDocTermsMatchElementsContainment(t *testing.T) {
	// Every posting position must be contained in its document's root
	// element per the strict containment test.
	st, sum, col := buildTiny(t,
		`<article><sec>findme and findme again</sec></article>`,
	)
	rootSID := sidOf(t, sum, "article")
	it := NewElementIterator(st, rootSID)
	rootElem, err := it.FirstElement()
	if err != nil {
		t.Fatal(err)
	}
	pit := NewPostingIterator(st, "findme")
	for {
		p, err := pit.NextPosition()
		if err != nil {
			t.Fatal(err)
		}
		if p.IsMax() {
			break
		}
		if !rootElem.Contains(p) {
			t.Fatalf("root does not contain %v (root span [%d,%d))",
				p, rootElem.Start(), rootElem.End)
		}
	}
	_ = col
}

// referenceBuildBase is BuildBase as it was before the grouped, windowed
// build: every document parsed into a tree and a per-token term slice,
// all of them held until the last document is parsed, then merged with
// per-document seen-maps. It survives here as the reference the
// streaming build is compared with.
func referenceBuildBase(s *Store, col *corpus.Collection, sum *summary.Summary) (*BuildStats, error) {
	type elemRow struct {
		sid, doc, end, length uint32
	}
	var elems []elemRow
	postings := make(map[string][]Pos)
	df := make(map[string]uint32)
	cf := make(map[string]uint64)
	var sumLen int64
	stop, err := s.Stopwords()
	if err != nil {
		return nil, err
	}
	type docResult struct {
		elems  []elemRow
		terms  []xmlscan.Term
		sumLen int64
		err    error
	}
	results := make([]docResult, len(col.Docs))
	for i := range col.Docs {
		d := &col.Docs[i]
		r := &results[i]
		root, terms, err := referenceParseAndTerms(col.Format, d.Data)
		if err != nil {
			r.err = fmt.Errorf("index: parse doc %d: %w", d.ID, err)
			continue
		}
		r.terms = terms
		err = sum.AssignDoc(root, func(n *xmlscan.Node, sid int) {
			r.elems = append(r.elems, elemRow{
				sid:    uint32(sid),
				doc:    uint32(d.ID),
				end:    uint32(n.End),
				length: uint32(n.Length()),
			})
			r.sumLen += int64(n.Length())
		})
		if err != nil {
			r.err = fmt.Errorf("index: doc %d: %w", d.ID, err)
		}
	}
	for i := range col.Docs {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		elems = append(elems, r.elems...)
		sumLen += r.sumLen
		seenInDoc := make(map[string]bool)
		docID := uint32(col.Docs[i].ID)
		for _, t := range r.terms {
			if stop[t.Text] {
				continue
			}
			postings[t.Text] = append(postings[t.Text], Pos{Doc: docID, Off: uint32(t.Offset)})
			cf[t.Text]++
			if !seenInDoc[t.Text] {
				seenInDoc[t.Text] = true
				df[t.Text]++
			}
		}
	}
	slices.SortFunc(elems, func(a, b elemRow) int {
		if c := cmp.Compare(a.sid, b.sid); c != 0 {
			return c
		}
		return CompareDocEnd(a.doc, a.end, b.doc, b.end)
	})
	ebl, err := s.Elements.NewBulkLoader(0)
	if err != nil {
		return nil, err
	}
	for _, e := range elems {
		if err := ebl.Add(elementsKey(e.sid, e.doc, e.end), elementsValue(e.length)); err != nil {
			return nil, err
		}
	}
	if err := ebl.Finish(); err != nil {
		return nil, err
	}
	tokens := make([]string, 0, len(postings))
	for t := range postings {
		tokens = append(tokens, t)
	}
	slices.Sort(tokens)
	pbl, err := s.Postings.NewBulkLoader(0)
	if err != nil {
		return nil, err
	}
	var totalPostings int64
	for _, t := range tokens {
		ps := postings[t]
		totalPostings += int64(len(ps))
		for lo := 0; lo < len(ps); lo += maxPostingsPerFragment {
			hi := min(lo+maxPostingsPerFragment, len(ps))
			frag := ps[lo:hi]
			if err := pbl.Add(postingKey(t, frag[0]), postingValue(frag)); err != nil {
				return nil, err
			}
		}
	}
	if err := pbl.Finish(); err != nil {
		return nil, err
	}
	tbl, err := s.TermStats.NewBulkLoader(0)
	if err != nil {
		return nil, err
	}
	for _, t := range tokens {
		if err := tbl.Add([]byte(t), termStatsValue(df[t], cf[t])); err != nil {
			return nil, err
		}
	}
	if err := tbl.Finish(); err != nil {
		return nil, err
	}
	avg := float64(0)
	if len(elems) > 0 {
		avg = float64(sumLen) / float64(len(elems))
	}
	st := score.CollectionStats{NumDocs: len(col.Docs), NumElements: len(elems), AvgElementLen: avg}
	if err := s.PutCollectionStats(st); err != nil {
		return nil, err
	}
	bs := &BuildStats{Docs: len(col.Docs), Elements: len(elems), Terms: len(tokens), Postings: totalPostings}
	if bs.ElementsBytes, err = s.Elements.ApproxBytes(); err != nil {
		return nil, err
	}
	if bs.PostingsBytes, err = s.Postings.ApproxBytes(); err != nil {
		return nil, err
	}
	return bs, nil
}

// referenceParseAndTerms is the per-token tokenizer the reference build
// ran: every token of every text run of the document's canonical XML
// rendering, in document order.
func referenceParseAndTerms(f corpus.Format, data []byte) (*xmlscan.Node, []xmlscan.Term, error) {
	root, err := corpus.ParseDoc(f, data)
	if err != nil {
		return nil, nil, err
	}
	xml, err := corpus.RenderXML(f, data)
	if err != nil {
		return nil, nil, err
	}
	var terms []xmlscan.Term
	sc := xmlscan.NewScanner(xml)
	for sc.Next() {
		if ev := sc.Event(); ev.Kind == xmlscan.KindText {
			xmlscan.Tokenize(ev.Text, ev.Offset, func(t xmlscan.Term) { terms = append(terms, t) })
		}
	}
	return root, terms, sc.Err()
}

// buildWith builds col into a fresh in-memory store with the given
// stopwords, using build, and returns the store and build statistics.
func buildWith(t *testing.T, build func(*Store, *corpus.Collection, *summary.Summary) (*BuildStats, error),
	col *corpus.Collection, stop []string) (*Store, *BuildStats) {
	t.Helper()
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming, Aliases: col.Aliases})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.OpenMemory()
	t.Cleanup(func() { db.Close() })
	st, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(stop) > 0 {
		if err := st.PutStopwords(stop); err != nil {
			t.Fatal(err)
		}
	}
	bs, err := build(st, col, sum)
	if err != nil {
		t.Fatal(err)
	}
	return st, bs
}

// sameRows reports the first difference between two tables, row by row.
func sameRows(name string, got, want *storage.Tree) error {
	gc, wc := got.Cursor(), want.Cursor()
	gok, gerr := gc.First()
	wok, werr := wc.First()
	for row := 0; ; row++ {
		if gerr != nil || werr != nil {
			return fmt.Errorf("%s: cursor errors %v, %v", name, gerr, werr)
		}
		if gok != wok {
			return fmt.Errorf("%s: row %d present %v, reference %v", name, row, gok, wok)
		}
		if !gok {
			return nil
		}
		if !bytes.Equal(gc.Key(), wc.Key()) || !bytes.Equal(gc.Value(), wc.Value()) {
			return fmt.Errorf("%s row %d: %x=%x, reference %x=%x", name, row, gc.Key(), gc.Value(), wc.Key(), wc.Value())
		}
		gok, gerr = gc.Next()
		wok, werr = wc.Next()
	}
}

// corpusStopwords picks every third distinct term of the first document,
// so a stopword set is sure to remove terms the collection has.
func corpusStopwords(col *corpus.Collection) []string {
	_, terms, err := referenceParseAndTerms(col.Format, col.Docs[0].Data)
	if err != nil {
		panic(err)
	}
	seen := map[string]bool{}
	var out []string
	for _, tm := range terms {
		if !seen[tm.Text] {
			seen[tm.Text] = true
			if len(seen)%3 == 0 {
				out = append(out, tm.Text)
			}
		}
	}
	return append(out, DefaultStopwords...)
}

// TestBuildBaseMatchesReference: the grouped, windowed build writes the
// same Elements, PostingLists and TermStats rows, byte for byte, and the
// same collection statistics as the reference build — over generated
// IEEE, Wikipedia and JSON collections, the oracle's random XML and JSON
// documents, and hand-written edge cases, with and without stopwords.
func TestBuildBaseMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several workers even on one core
	docs := func(ds ...string) *corpus.Collection {
		col := &corpus.Collection{}
		for i, d := range ds {
			col.Docs = append(col.Docs, corpus.Document{ID: i, Data: []byte(d)})
		}
		return col
	}
	ids := make([]int, 30)
	for i := range ids {
		ids[i] = 3 * i
	}
	repeated := "<a><b>" + strings.Repeat("zz yy ", 2*maxPostingsPerFragment+7) + "</b></a>"
	cases := []struct {
		name string
		col  *corpus.Collection
	}{
		{"ieee", corpus.GenerateIEEE(40, 11)},
		{"wiki", corpus.GenerateWiki(60, 12)},
		{"json", corpus.GenerateJSON(60, 13)},
		{"gen-xml", gen.Collection(14, ids)},
		{"gen-json", gen.JSONCollection(15, ids)},
		{"edge", docs(
			`<a><b/><c></c></a>`, // no text at all
			`<a>ABC abc x Y Q1 q1 7 77 aBc</a>`,
			repeated,
			`<a>zz<b>ZZ</b>zz</a>`,
			repeated,
		)},
	}
	for _, c := range cases {
		for _, stop := range []bool{false, true} {
			name := c.name
			var words []string
			if stop {
				name += "/stopwords"
				words = corpusStopwords(c.col)
				if c.name == "edge" {
					words = []string{"yy", "abc"}
				}
			}
			t.Run(name, func(t *testing.T) {
				got, gotBS := buildWith(t, BuildBase, c.col, words)
				want, wantBS := buildWith(t, referenceBuildBase, c.col, words)
				if *gotBS != *wantBS {
					t.Fatalf("BuildStats %+v, reference %+v", *gotBS, *wantBS)
				}
				for _, tb := range []struct {
					name      string
					got, want *storage.Tree
				}{
					{TableElements, got.Elements, want.Elements},
					{TablePostingLists, got.Postings, want.Postings},
					{TableTermStats, got.TermStats, want.TermStats},
				} {
					if err := sameRows(tb.name, tb.got, tb.want); err != nil {
						t.Fatal(err)
					}
				}
				gcs, err := got.CollectionStats()
				if err != nil {
					t.Fatal(err)
				}
				wcs, err := want.CollectionStats()
				if err != nil {
					t.Fatal(err)
				}
				if gcs != wcs || math.Float64bits(gcs.AvgElementLen) != math.Float64bits(wcs.AvgElementLen) {
					t.Fatalf("CollectionStats %+v, reference %+v", gcs, wcs)
				}
				if gotBS.Postings == 0 && c.name != "edge" {
					t.Fatal("empty build")
				}
			})
		}
	}
}

// TestBuildBaseStopsAtFirstError: a malformed document first, in the
// middle or last fails the build with that document's error — the first
// malformed one in document order when there are several — and no
// parsing goroutine outlives the call. The document after the first
// malformed one is large, so a worker is still parsing it when the fold
// meets the error; BuildBase must wait for that worker before it
// returns.
func TestBuildBaseStopsAtFirstError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	good := corpus.GenerateIEEE(50, 3)
	sum, err := summary.Build(good, summary.Options{Kind: summary.KindIncoming, Aliases: good.Aliases})
	if err != nil {
		t.Fatal(err)
	}
	large := []byte("<article><bdy>" + strings.Repeat("slow parse of a long body ", 1<<18) + "</bdy></article>")
	baseline := runtime.NumGoroutine()
	for _, bad := range [][]int{{0}, {25}, {49}, {17, 18, 40}, {3, 2}} {
		col := &corpus.Collection{Docs: slices.Clone(good.Docs), Aliases: good.Aliases}
		for _, i := range bad {
			col.Docs[i].Data = []byte(`<article><bdy>broken`)
		}
		first := slices.Min(bad)
		if next := first + 1; next < len(col.Docs) && !slices.Contains(bad, next) {
			col.Docs[next].Data = large
		}
		db := storage.OpenMemory()
		st, err := Open(db)
		if err != nil {
			t.Fatal(err)
		}
		_, err = BuildBase(st, col, sum)
		// A worker counts as running until its goroutine returns, a moment
		// after it signals the wait group; allow that moment, no more.
		deadline := time.Now().Add(20 * time.Millisecond)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("malformed docs %v: %d goroutines after BuildBase, %d before", bad, n, baseline)
		}
		db.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("parse doc %d:", first)) {
			t.Fatalf("malformed docs %v: error %v, want one naming doc %d", bad, err, first)
		}
	}
}

// TestStageDocumentsAllocationCeiling holds staging an ingest batch to
// at most one heap allocation per token, on a batch of generated JSON
// documents (the ingest workload's universe). Staging used to allocate
// a string per token and a per-token term slice per document.
func TestStageDocumentsAllocationCeiling(t *testing.T) {
	col := corpus.GenerateJSON(400, 20070415)
	tokens := 0
	var p corpus.Parser
	for _, d := range col.Docs {
		_, tg, err := p.Parse(corpus.FormatJSON, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		tokens += len(tg.Offsets)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := StageDocuments(corpus.FormatJSON, col.Docs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.groups) != len(col.Docs) {
		t.Fatalf("staged %d documents, want %d", len(b.groups), len(col.Docs))
	}
	perToken := float64(after.Mallocs-before.Mallocs) / float64(tokens)
	t.Logf("%d tokens, %.2f allocations per token", tokens, perToken)
	if perToken > 1 {
		t.Fatalf("StageDocuments made %.2f allocations per token, want at most 1", perToken)
	}
}

// TestApplyStagedMatchesBuildBase: appending the second half of a
// collection through StageDocuments and ApplyStaged leaves the same
// Elements and TermStats rows, byte for byte, and the same positions
// per term as building the whole collection at once — in both
// universes, with and without stopwords. (Posting fragments are cut per
// batch, so their keys differ; average element length may differ in
// the last ulp, see DESIGN.md.)
func TestApplyStagedMatchesBuildBase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, col := range []*corpus.Collection{corpus.GenerateIEEE(30, 21), corpus.GenerateJSON(60, 22)} {
		for _, words := range [][]string{nil, corpusStopwords(col)} {
			t.Run(fmt.Sprintf("%v/%d-stopwords", col.Format, len(words)), func(t *testing.T) {
				whole, _ := buildWith(t, BuildBase, col, words)

				half := *col
				half.Docs = col.Docs[:len(col.Docs)/2]
				sum, err := summary.Build(&half, summary.Options{Kind: summary.KindIncoming, Aliases: col.Aliases})
				if err != nil {
					t.Fatal(err)
				}
				db := storage.OpenMemory()
				t.Cleanup(func() { db.Close() })
				inc, err := Open(db)
				if err != nil {
					t.Fatal(err)
				}
				if len(words) > 0 {
					if err := inc.PutStopwords(words); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := BuildBase(inc, &half, sum); err != nil {
					t.Fatal(err)
				}
				b, err := StageDocuments(col.Format, col.Docs[len(half.Docs):])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ApplyStaged(inc, b, sum); err != nil {
					t.Fatal(err)
				}

				for _, tb := range []struct {
					name      string
					got, want *storage.Tree
				}{
					{TableElements, inc.Elements, whole.Elements},
					{TableTermStats, inc.TermStats, whole.TermStats},
				} {
					if err := sameRows(tb.name, tb.got, tb.want); err != nil {
						t.Fatal(err)
					}
				}
				cur := whole.TermStats.Cursor()
				ok, err := cur.First()
				for ; ok && err == nil; ok, err = cur.Next() {
					term := string(cur.Key())
					got, want := NewPostingIterator(inc, term), NewPostingIterator(whole, term)
					for {
						g, gerr := got.NextPosition()
						w, werr := want.NextPosition()
						if gerr != nil || werr != nil {
							t.Fatalf("%s: %v, %v", term, gerr, werr)
						}
						if g != w {
							t.Fatalf("%s: appended position %v, whole build %v", term, g, w)
						}
						if w.IsMax() {
							break
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
