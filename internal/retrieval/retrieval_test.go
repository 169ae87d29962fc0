package retrieval

import (
	"context"
	"math"
	"strings"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/nexi"
	"trex/internal/score"
	"trex/internal/storage"
	"trex/internal/summary"
	"trex/internal/translate"
)

// env bundles everything a retrieval test needs.
type env struct {
	store *index.Store
	sum   *summary.Summary
	col   *corpus.Collection
}

func newEnv(t *testing.T, col *corpus.Collection) *env {
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
	return &env{store: st, sum: sum, col: col}
}

func handEnv(t *testing.T, docs ...string) *env {
	t.Helper()
	col := &corpus.Collection{}
	for i, d := range docs {
		col.Docs = append(col.Docs, corpus.Document{ID: i, Data: []byte(d)})
	}
	return newEnv(t, col)
}

// clause translates a query and returns the sids/terms of its i-th clause.
func (e *env) clause(t *testing.T, src string, i int) ([]uint32, []string) {
	t.Helper()
	q, err := nexi.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(q, e.sum, translate.ModeVague)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Clauses[i]
	return c.SIDs, c.PositiveTerms()
}

func (e *env) scorer(t *testing.T, terms []string) *score.Scorer {
	t.Helper()
	sc, err := e.store.NewScorer(terms)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func (e *env) materialize(t *testing.T, sids []uint32, terms []string) {
	t.Helper()
	sc := e.scorer(t, terms)
	if _, err := Materialize(e.store, sids, terms, sc, index.KindRPL, index.KindERPL); err != nil {
		t.Fatal(err)
	}
}

func TestERASingleSIDSingleTerm(t *testing.T) {
	e := handEnv(t,
		`<a><b>apple banana apple</b><b>cherry</b></a>`,
		`<a><b>apple</b></a>`,
	)
	sids, terms := e.clause(t, `//a//b[about(., apple)]`, 0)
	rows, stats, err := ERACtx(context.Background(), e.store, sids, terms)
	if err != nil {
		t.Fatal(err)
	}
	// Two b-elements contain "apple"; tf 2 and 1.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2: %+v", len(rows), rows)
	}
	var tfs []int
	for _, r := range rows {
		tfs = append(tfs, r.TF[0])
	}
	if !(tfs[0] == 2 && tfs[1] == 1) && !(tfs[0] == 1 && tfs[1] == 2) {
		t.Fatalf("tfs = %v", tfs)
	}
	if stats.PositionsScanned == 0 || stats.ElementsScanned == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

func TestERAMultiTermMatrix(t *testing.T) {
	e := handEnv(t,
		`<a><b>xx yy</b><b>yy yy</b><b>zz</b></a>`,
	)
	sids, _ := e.clause(t, `//a//b[about(., xx yy)]`, 0)
	rows, _, err := ERACtx(context.Background(), e.store, sids, []string{"xx", "yy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (zz-only element excluded)", len(rows))
	}
	// First b: xx=1 yy=1; second b: xx=0 yy=2.
	if rows[0].TF[0] != 1 || rows[0].TF[1] != 1 {
		t.Fatalf("row0 tf = %v", rows[0].TF)
	}
	if rows[1].TF[0] != 0 || rows[1].TF[1] != 2 {
		t.Fatalf("row1 tf = %v", rows[1].TF)
	}
}

func TestERAMultipleSIDsNestedExtents(t *testing.T) {
	// article contains sec; both extents searched: term inside sec counts
	// for both the sec element and the article element.
	e := handEnv(t,
		`<article><sec>target word</sec><sec>other</sec></article>`,
	)
	q := `//article[about(., target)]`
	artSIDs, _ := e.clause(t, q, 0)
	secSIDs, _ := e.clause(t, `//article//sec[about(., target)]`, 0)
	all := append(append([]uint32{}, artSIDs...), secSIDs...)
	rows, _, err := ERACtx(context.Background(), e.store, all, []string{"target"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (article and sec)", len(rows))
	}
	gotSIDs := map[uint32]bool{}
	for _, r := range rows {
		gotSIDs[r.Elem.SID] = true
		if r.TF[0] != 1 {
			t.Fatalf("tf = %d, want 1", r.TF[0])
		}
	}
	if !gotSIDs[artSIDs[0]] || !gotSIDs[secSIDs[0]] {
		t.Fatalf("sids = %v", gotSIDs)
	}
}

func TestERAEmptyInputs(t *testing.T) {
	e := handEnv(t, `<a><b>x</b></a>`)
	rows, _, err := ERACtx(context.Background(), e.store, nil, []string{"x"})
	if err != nil || rows != nil {
		t.Fatalf("no sids: %v, %v", rows, err)
	}
	rows, _, err = ERACtx(context.Background(), e.store, []uint32{1}, nil)
	if err != nil || rows != nil {
		t.Fatalf("no terms: %v, %v", rows, err)
	}
	rows, _, err = ERACtx(context.Background(), e.store, []uint32{1}, []string{"absentterm"})
	if err != nil || len(rows) != 0 {
		t.Fatalf("absent term: %v, %v", rows, err)
	}
}

func TestTFInSpanMatchesERA(t *testing.T) {
	e := handEnv(t,
		`<a><b>apple pear apple plum</b><b>pear</b></a>`,
		`<a><b>apple</b></a>`,
	)
	sids, _ := e.clause(t, `//a//b[about(., apple pear)]`, 0)
	rows, _, err := ERACtx(context.Background(), e.store, sids, []string{"apple", "pear"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for j, term := range []string{"apple", "pear"} {
			tf, err := index.TFInSpan(e.store, term, r.Elem)
			if err != nil {
				t.Fatal(err)
			}
			if tf != r.TF[j] {
				t.Fatalf("TFInSpan(%s, %+v) = %d, ERA says %d", term, r.Elem, tf, r.TF[j])
			}
		}
	}
}

func TestMaterializeAndIterate(t *testing.T) {
	e := handEnv(t,
		`<a><b>foo bar foo</b><b>bar</b></a>`,
	)
	sids, terms := e.clause(t, `//a//b[about(., foo bar)]`, 0)
	sc := e.scorer(t, terms)
	ms, err := Materialize(e.store, sids, terms, sc, index.KindRPL, index.KindERPL)
	if err != nil {
		t.Fatal(err)
	}
	// foo appears in 1 element, bar in 2: 3 entries per kind.
	if ms.RPLEntries != 3 || ms.ERPLEntries != 3 {
		t.Fatalf("entries = %d RPL, %d ERPL; want 3, 3", ms.RPLEntries, ms.ERPLEntries)
	}
	if ms.RPLBytes <= 0 || ms.ERPLBytes <= 0 {
		t.Fatalf("bytes = %d, %d", ms.RPLBytes, ms.ERPLBytes)
	}
	cov, err := e.store.Covered(index.KindRPL, terms, sids)
	if err != nil || !cov {
		t.Fatalf("RPL coverage = %v, %v", cov, err)
	}
	cov, err = e.store.Covered(index.KindERPL, terms, sids)
	if err != nil || !cov {
		t.Fatalf("ERPL coverage = %v, %v", cov, err)
	}
	// RPL order is score-descending.
	it := index.NewRPLIterator(e.store, "bar")
	prev := math.Inf(1)
	for {
		entry, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if entry.Score > prev {
			t.Fatalf("RPL not descending: %v after %v", entry.Score, prev)
		}
		prev = entry.Score
	}
}

// scoresOf projects the score sequence of a ranked list.
func scoresOf(s []Scored) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = s[i].Score
	}
	return out
}

func scoresClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestThreeMethodsAgree(t *testing.T) {
	// The central invariant: ERA, TA and Merge produce the same ranked
	// score sequence for the same clause.
	col := corpus.GenerateIEEE(25, 77)
	e := newEnv(t, col)
	queries := []string{
		`//article//sec[about(., ontologies case study)]`,
		`//article[about(., xml query evaluation)]`,
		`//article//p[about(., model checking)]`,
		`//bdy//*[about(., information retrieval)]`,
	}
	for _, src := range queries {
		sids, terms := e.clause(t, src, 0)
		if len(sids) == 0 || len(terms) == 0 {
			t.Fatalf("%s: empty translation (sids=%d terms=%d)", src, len(sids), len(terms))
		}
		e.materialize(t, sids, terms)
		sc := e.scorer(t, terms)

		for _, k := range []int{1, 5, 50, 100000} {
			era, _, err := ExhaustiveTopKCtx(context.Background(), e.store, sids, terms, sc, k)
			if err != nil {
				t.Fatalf("%s ERA: %v", src, err)
			}
			ta, _, err := TACtx(context.Background(), e.store, sids, terms, sc, k)
			if err != nil {
				t.Fatalf("%s TA: %v", src, err)
			}
			mrg, _, err := MergeCtx(context.Background(), e.store, sids, terms, k)
			if err != nil {
				t.Fatalf("%s Merge: %v", src, err)
			}
			if !scoresClose(scoresOf(era), scoresOf(ta)) {
				t.Fatalf("%s k=%d: ERA %v != TA %v", src, k, head(scoresOf(era)), head(scoresOf(ta)))
			}
			if !scoresClose(scoresOf(era), scoresOf(mrg)) {
				t.Fatalf("%s k=%d: ERA %v != Merge %v", src, k, head(scoresOf(era)), head(scoresOf(mrg)))
			}
			// With deterministic tie-breaking the element lists agree too.
			for i := range era {
				if era[i].Elem != ta[i].Elem || era[i].Elem != mrg[i].Elem {
					t.Fatalf("%s k=%d rank %d: elements differ: %+v / %+v / %+v",
						src, k, i, era[i].Elem, ta[i].Elem, mrg[i].Elem)
				}
			}
		}
	}
}

func head(s []float64) []float64 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

func TestTAStats(t *testing.T) {
	col := corpus.GenerateIEEE(20, 5)
	e := newEnv(t, col)
	sids, terms := e.clause(t, `//article//sec[about(., ontologies case study)]`, 0)
	e.materialize(t, sids, terms)
	sc := e.scorer(t, terms)
	_, stats, err := TACtx(context.Background(), e.store, sids, terms, sc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SortedAccesses == 0 {
		t.Fatal("no sorted accesses recorded")
	}
	if stats.RandomAccesses == 0 {
		t.Fatal("no random accesses recorded")
	}
	if stats.HeapOps == 0 {
		t.Fatal("no heap ops recorded")
	}
	if stats.ITATime() > stats.Elapsed {
		t.Fatal("ITATime exceeds Elapsed")
	}
	if stats.DepthFraction() <= 0 || stats.DepthFraction() > 1.000001 {
		t.Fatalf("DepthFraction = %v", stats.DepthFraction())
	}
}

func TestTASkipsForeignSIDs(t *testing.T) {
	e := handEnv(t,
		`<a><b>shared term here</b><c>shared term too</c></a>`,
	)
	bSIDs, _ := e.clause(t, `//a//b[about(., shared)]`, 0)
	cSIDs, _ := e.clause(t, `//a//c[about(., shared)]`, 0)
	// Materialize both extents into the same RPL for "shared".
	e.materialize(t, append(append([]uint32{}, bSIDs...), cSIDs...), []string{"shared"})
	sc := e.scorer(t, []string{"shared"})
	// Query only the b extent: the c entry must be skipped.
	res, stats, err := TACtx(context.Background(), e.store, bSIDs, []string{"shared"}, sc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	if res[0].Elem.SID != bSIDs[0] {
		t.Fatalf("result sid = %d, want %d", res[0].Elem.SID, bSIDs[0])
	}
	if stats.SkippedBySID == 0 {
		t.Fatal("expected sid skips")
	}
}

func TestMergeComputesAllThenTruncates(t *testing.T) {
	col := corpus.GenerateIEEE(15, 9)
	e := newEnv(t, col)
	sids, terms := e.clause(t, `//article//p[about(., model checking state)]`, 0)
	e.materialize(t, sids, terms)
	all, statsAll, err := MergeCtx(context.Background(), e.store, sids, terms, 0)
	if err != nil {
		t.Fatal(err)
	}
	SortScored(all) // k <= 0 promises every answer, not an order
	top5, stats5, err := MergeCtx(context.Background(), e.store, sids, terms, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 6 {
		t.Fatalf("need more answers for this test, got %d", len(all))
	}
	if len(top5) != 5 {
		t.Fatalf("top5 = %d", len(top5))
	}
	for i := range top5 {
		if top5[i] != all[i] {
			t.Fatalf("top5[%d] != all[%d]", i, i)
		}
	}
	// Merge reads everything regardless of k.
	if statsAll.Answers != stats5.Answers {
		t.Fatalf("Answers differ: %d vs %d", statsAll.Answers, stats5.Answers)
	}
}

func TestMergeEmptyLists(t *testing.T) {
	e := handEnv(t, `<a><b>x</b></a>`)
	res, _, err := MergeCtx(context.Background(), e.store, []uint32{1}, []string{"neverbuilt"}, 10)
	if err != nil || len(res) != 0 {
		t.Fatalf("Merge over empty lists = %v, %v", res, err)
	}
	res, _, err = MergeCtx(context.Background(), e.store, nil, []string{"x"}, 10)
	if err != nil || res != nil {
		t.Fatalf("Merge with no sids = %v, %v", res, err)
	}
}

func TestTopKHeapBehavior(t *testing.T) {
	h := newTopKHeap(3)
	if h.full() {
		t.Fatal("empty heap full")
	}
	mk := func(score float64, end uint32) Scored {
		return Scored{Elem: index.Element{Doc: 1, End: end}, Score: score}
	}
	h.offer(mk(5, 1))
	h.offer(mk(1, 2))
	h.offer(mk(3, 3))
	if !h.full() {
		t.Fatal("heap not full after k offers")
	}
	if h.worst() != 1 {
		t.Fatalf("worst = %v", h.worst())
	}
	h.offer(mk(0.5, 4)) // rejected
	if h.worst() != 1 {
		t.Fatalf("worst after reject = %v", h.worst())
	}
	h.offer(mk(4, 5)) // evicts 1
	if h.worst() != 3 {
		t.Fatalf("worst after evict = %v", h.worst())
	}
	got := h.sorted()
	want := []float64{5, 4, 3}
	for i := range want {
		if got[i].Score != want[i] {
			t.Fatalf("sorted = %v", scoresOf(got))
		}
	}
	if h.ops != 5 { // 3 pushes + eviction (counted as 2)
		t.Fatalf("ops = %d, want 5", h.ops)
	}
}

func TestERAAgainstNaiveScan(t *testing.T) {
	// Compare ERA's (element, tf) output against a brute-force recount
	// over the raw documents.
	col := corpus.GenerateWiki(10, 21)
	e := newEnv(t, col)
	sids, terms := e.clause(t, `//article//p[about(., genetic algorithm)]`, 0)
	rows, _, err := ERACtx(context.Background(), e.store, sids, terms)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		data := col.Docs[r.Elem.Doc].Data
		span := string(data[r.Elem.Start():r.Elem.End])
		for j, term := range terms {
			want := countTokens(span, term)
			if r.TF[j] != want {
				t.Fatalf("elem %+v term %q: ERA tf=%d, naive=%d", r.Elem, term, r.TF[j], want)
			}
		}
	}
}

// countTokens counts whole-token occurrences of term in text, mirroring
// the tokenizer's rules.
func countTokens(text, term string) int {
	count := 0
	lower := strings.ToLower(text)
	for i := 0; i+len(term) <= len(lower); i++ {
		if lower[i:i+len(term)] != term {
			continue
		}
		beforeOK := i == 0 || !isAlnum(lower[i-1])
		after := i + len(term)
		afterOK := after == len(lower) || !isAlnum(lower[after])
		if beforeOK && afterOK {
			count++
		}
	}
	return count
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c >= 'A' && c <= 'Z'
}
