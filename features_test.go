package trex

import (
	"slices"
	"strings"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/score"
	"trex/internal/summary"
	"trex/internal/translate"
)

func TestStrictModeQuery(t *testing.T) {
	// Build without aliases so strict and vague differ on synonym tags.
	col := &corpus.Collection{Docs: []corpus.Document{
		{ID: 0, Data: []byte(`<article><bdy><sec><p>finding</p></sec><ss1><p>finding</p></ss1></bdy></article>`)},
	}}
	col.Aliases = map[string]string{"ss1": "sec"}
	eng, err := CreateMemory(col, &Options{
		SummaryKind: summary.KindIncoming,
		Aliases:     map[string]string{}, // no aliasing in the summary
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Strict //article//sec: only the literal sec matches.
	strict, err := eng.QueryOpts(`//article//sec[about(., finding)]`,
		QueryOptions{K: 10, Method: MethodERA, Mode: translate.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	if strict.TotalAnswers != 1 {
		t.Fatalf("strict answers = %d, want 1", strict.TotalAnswers)
	}
	// Strict //article//ss1 matches the literal ss1 (no-alias summary).
	strictSS1, err := eng.QueryOpts(`//article//ss1[about(., finding)]`,
		QueryOptions{K: 10, Method: MethodERA, Mode: translate.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	if strictSS1.TotalAnswers != 1 {
		t.Fatalf("strict ss1 answers = %d, want 1", strictSS1.TotalAnswers)
	}
}

func TestPhraseBonusReordersAdjacency(t *testing.T) {
	col := &corpus.Collection{Docs: []corpus.Document{
		// Doc 0: words adjacent (true phrase).
		{ID: 0, Data: []byte(`<article><p>research on genetic algorithm design</p></article>`)},
		// Doc 1: both words present but apart; extra repetitions push its
		// bag-of-words score above doc 0.
		{ID: 1, Data: []byte(`<article><p>genetic research genetic mutation ` +
			`uses one algorithm then another algorithm and a third algorithm</p></article>`)},
	}}
	eng, err := CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const q = `//article[about(., "genetic algorithm")]`
	plain, err := eng.Query(q, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(plain.Answers))
	}
	if plain.Answers[0].Doc != 1 {
		t.Fatalf("setup broken: without bonus doc 1 should lead (tf advantage); got doc %d", plain.Answers[0].Doc)
	}
	boosted, err := eng.QueryOpts(q, QueryOptions{K: 10, Method: MethodERA, PhraseBonus: 5})
	if err != nil {
		t.Fatal(err)
	}
	if boosted.Answers[0].Doc != 0 {
		t.Fatalf("phrase bonus did not promote the adjacent occurrence: %+v", boosted.Answers)
	}
}

func TestSnippet(t *testing.T) {
	col := &corpus.Collection{Docs: []corpus.Document{
		{ID: 0, Data: []byte(`<article><fm><atl>padding words here</atl></fm>` +
			`<sec><p>before before the ontologies keyword appears right here after after</p></sec></article>`)},
	}}
	eng, err := CreateMemory(col, &Options{StoreDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(`//article//sec[about(., ontologies)]`, 1, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	snip, err := eng.Snippet(res.Answers[0], []string{"ontologies"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snip, "ontologies") {
		t.Fatalf("snippet %q does not contain the term", snip)
	}
	if strings.ContainsAny(snip, "<>") {
		t.Fatalf("snippet %q contains markup", snip)
	}
	// Without stored documents, Snippet reports a usable error.
	eng2, err := CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, err := eng2.Snippet(res.Answers[0], []string{"ontologies"}, 60); err == nil {
		t.Fatal("snippet without stored documents succeeded")
	}
	// Term not found: snippet still returns leading text.
	snip, err = eng.Snippet(res.Answers[0], []string{"absentword"}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if snip == "" {
		t.Fatal("empty fallback snippet")
	}
	// Bad span errors.
	bad := res.Answers[0]
	bad.End = 1 << 30
	if _, err := eng.Snippet(bad, nil, 40); err == nil {
		t.Fatal("bad span accepted")
	}
}

func TestQueryOptsDefaults(t *testing.T) {
	eng := testEngine(t, 10, 2)
	a, err := eng.Query(`//article[about(., ontologies)]`, 5, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.QueryOpts(`//article[about(., ontologies)]`, QueryOptions{K: 5, Method: MethodERA})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != len(b.Answers) {
		t.Fatal("QueryOpts defaults differ from Query")
	}
	for i := range a.Answers {
		if a.Answers[i] != b.Answers[i] {
			t.Fatal("QueryOpts defaults differ from Query")
		}
	}
}

func TestPagination(t *testing.T) {
	eng := testEngine(t, 20, 121)
	const q = `//article//sec[about(., ontologies case study)]`
	all, err := eng.Query(q, 0, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if all.TotalAnswers < 6 {
		t.Skipf("need more answers, got %d", all.TotalAnswers)
	}
	page1, err := eng.QueryOpts(q, QueryOptions{K: 3, Method: MethodERA})
	if err != nil {
		t.Fatal(err)
	}
	page2, err := eng.QueryOpts(q, QueryOptions{K: 3, Method: MethodERA, Offset: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Answers) != 3 || len(page2.Answers) != 3 {
		t.Fatalf("page sizes = %d, %d", len(page1.Answers), len(page2.Answers))
	}
	for i := 0; i < 3; i++ {
		if page1.Answers[i] != all.Answers[i] {
			t.Fatalf("page1[%d] mismatch", i)
		}
		if page2.Answers[i] != all.Answers[i+3] {
			t.Fatalf("page2[%d] mismatch", i)
		}
	}
	// Offset beyond the answer set yields an empty page, not an error.
	deep, err := eng.QueryOpts(q, QueryOptions{K: 3, Method: MethodERA, Offset: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(deep.Answers) != 0 {
		t.Fatalf("deep page = %d answers", len(deep.Answers))
	}
	// Pagination works with TA's pushed-down k too.
	if _, err := eng.Materialize(q, index.KindRPL); err != nil {
		t.Fatal(err)
	}
	taPage2, err := eng.QueryOpts(q, QueryOptions{K: 3, Method: MethodTA, Offset: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range taPage2.Answers {
		if taPage2.Answers[i] != page2.Answers[i] {
			t.Fatalf("ta page2[%d] mismatch", i)
		}
	}

	// A support clause or a negated term makes the retrieval phase produce
	// every match, and combine ranks only the first k+offset of them: pages
	// of 3 must still tile the full ranking under every method.
	for _, q := range []string{
		`//article[about(., ontologies)]//sec[about(., ontologies case study)]`,
		`//article//sec[about(., ontologies case study -model)]`,
	} {
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
		for m := Method(0); int(m) < numMethods; m++ {
			all, err := eng.Query(q, 0, m)
			if err != nil {
				t.Fatal(err)
			}
			if all.TotalAnswers < 6 || len(all.Answers) != all.TotalAnswers {
				t.Fatalf("%s %v: %d answers of %d", q, m, len(all.Answers), all.TotalAnswers)
			}
			var tiled []Answer
			for offset := 0; offset <= all.TotalAnswers; offset += 3 {
				pg, err := eng.QueryOpts(q, QueryOptions{K: 3, Method: m, Offset: offset})
				if err != nil {
					t.Fatal(err)
				}
				if pg.TotalAnswers != all.TotalAnswers {
					t.Fatalf("%s %v offset %d: TotalAnswers %d, want %d", q, m, offset, pg.TotalAnswers, all.TotalAnswers)
				}
				tiled = append(tiled, pg.Answers...)
			}
			if !slices.Equal(tiled, all.Answers) {
				t.Fatalf("%s %v: pages of 3 differ from the k=0 ranking", q, m)
			}
			deep, err := eng.QueryOpts(q, QueryOptions{K: 3, Method: m, Offset: all.TotalAnswers})
			if err != nil {
				t.Fatal(err)
			}
			if len(deep.Answers) != 0 || deep.TotalAnswers != all.TotalAnswers {
				t.Fatalf("%s %v: page past the end has %d answers of %d", q, m, len(deep.Answers), deep.TotalAnswers)
			}
		}
	}
}

func TestStopwords(t *testing.T) {
	col := &corpus.Collection{Docs: []corpus.Document{
		{ID: 0, Data: []byte(`<article><sec>the retrieval of the data</sec></article>`)},
		{ID: 1, Data: []byte(`<article><sec>the the the the the</sec></article>`)},
	}}
	eng, err := CreateMemory(col, &Options{Stopwords: index.DefaultStopwords})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// "the" is not indexed at all.
	df, err := eng.Store().TermDF("the")
	if err != nil || df != 0 {
		t.Fatalf("DF(the) = %d, %v", df, err)
	}
	// A query mixing a stopword with a real term matches on the real term.
	res, err := eng.Query(`//article//sec[about(., the retrieval)]`, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAnswers != 1 || res.Answers[0].Doc != 0 {
		t.Fatalf("answers = %+v", res.Answers)
	}
	// A stopword-only query matches nothing.
	res, err = eng.Query(`//article//sec[about(., the of)]`, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAnswers != 0 {
		t.Fatalf("stopword-only query matched %d", res.TotalAnswers)
	}
	// The set persists: appended docs are filtered identically.
	if _, err := eng.AddDocuments([]corpus.Document{
		{ID: 2, Data: []byte(`<article><sec>the retrieval again</sec></article>`)},
	}); err != nil {
		t.Fatal(err)
	}
	df, err = eng.Store().TermDF("the")
	if err != nil || df != 0 {
		t.Fatalf("DF(the) after append = %d, %v", df, err)
	}
	res, err = eng.Query(`//article//sec[about(., retrieval)]`, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAnswers != 2 {
		t.Fatalf("retrieval matches = %d, want 2", res.TotalAnswers)
	}
}

func TestScoringModelSelection(t *testing.T) {
	col := corpus.GenerateIEEE(15, 131)
	bm25, err := CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bm25.Close()
	lm, err := CreateMemory(col, &Options{Scoring: score.ModelLMDirichlet})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	const q = `//article//sec[about(., ontologies case study)]`
	a, err := bm25.Query(q, 0, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lm.Query(q, 0, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	// Same matches under both models.
	if a.TotalAnswers != b.TotalAnswers {
		t.Fatalf("answer counts differ: %d vs %d", a.TotalAnswers, b.TotalAnswers)
	}
	// Scores differ (different formulas).
	if a.Answers[0].Score == b.Answers[0].Score {
		t.Fatal("models produced identical top scores — model not applied")
	}
	// Methods still agree among themselves under the LM model.
	if _, err := lm.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
		t.Fatal(err)
	}
	era, err := lm.Query(q, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodTA, MethodMerge, MethodNRA} {
		got, err := lm.Query(q, 10, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range era.Answers {
			if era.Answers[i] != got.Answers[i] {
				t.Fatalf("%v answer %d differs under LM model", m, i)
			}
		}
	}
	// Model persists across reopen.
	path := t.TempDir() + "/lm.trexdb"
	if err := lm.Backup(path); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	model, err := re.Store().ScoringModel()
	if err != nil || model != score.ModelLMDirichlet {
		t.Fatalf("persisted model = %v, %v", model, err)
	}
}
