package trex

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
	"trex/internal/retrieval"
	"trex/internal/summary"
)

func testEngine(t *testing.T, docs, seed int) *Engine {
	return testEngineOpts(t, docs, seed, nil)
}

func testEngineOpts(t *testing.T, docs, seed int, opts *Options) *Engine {
	t.Helper()
	col := corpus.GenerateIEEE(docs, int64(seed))
	eng, err := CreateMemory(col, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func TestCreateAndQueryERA(t *testing.T) {
	eng := testEngine(t, 30, 42)
	res, err := eng.Query(`//article//sec[about(., ontologies case study)]`, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodERA {
		t.Fatalf("method = %v", res.Method)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers for a planted topic")
	}
	if len(res.Answers) > 10 {
		t.Fatalf("answers = %d > k", len(res.Answers))
	}
	if res.TotalAnswers < len(res.Answers) {
		t.Fatalf("TotalAnswers = %d < returned %d", res.TotalAnswers, len(res.Answers))
	}
	// Ranked descending.
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].Score > res.Answers[i-1].Score {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
	// Every answer is a sec-like element.
	for _, a := range res.Answers {
		if !strings.HasSuffix(a.Path, "/sec") && a.Path != "/sec" {
			t.Fatalf("answer path = %q, want a sec extent", a.Path)
		}
		if a.End <= a.Start {
			t.Fatalf("bad span [%d,%d)", a.Start, a.End)
		}
	}
}

func TestQueryAutoFallsBackToERA(t *testing.T) {
	eng := testEngine(t, 10, 1)
	res, err := eng.Query(`//article[about(., xml query)]`, 5, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodERA {
		t.Fatalf("auto without lists picked %v", res.Method)
	}
}

func TestMaterializeEnablesTAAndMerge(t *testing.T) {
	eng := testEngine(t, 25, 7)
	const q = `//article//sec[about(., ontologies case study)]`
	ok, err := eng.CanUse(q, MethodTA)
	if err != nil || ok {
		t.Fatalf("TA available before materialize: %v, %v", ok, err)
	}
	if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodTA, MethodMerge} {
		ok, err := eng.CanUse(q, m)
		if err != nil || !ok {
			t.Fatalf("%v unavailable after materialize: %v, %v", m, ok, err)
		}
	}
	// All three methods agree on scores.
	era, err := eng.Query(q, 20, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := eng.Query(q, 20, MethodTA)
	if err != nil {
		t.Fatal(err)
	}
	mrg, err := eng.Query(q, 20, MethodMerge)
	if err != nil {
		t.Fatal(err)
	}
	if len(era.Answers) != len(ta.Answers) || len(era.Answers) != len(mrg.Answers) {
		t.Fatalf("answer counts differ: %d / %d / %d",
			len(era.Answers), len(ta.Answers), len(mrg.Answers))
	}
	for i := range era.Answers {
		if era.Answers[i] != ta.Answers[i] || era.Answers[i] != mrg.Answers[i] {
			t.Fatalf("answers differ at %d:\nera=%+v\nta =%+v\nmrg=%+v",
				i, era.Answers[i], ta.Answers[i], mrg.Answers[i])
		}
	}
	// Auto now picks TA for small k, Merge for large k.
	small, err := eng.Query(q, 5, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if small.Method != MethodTA {
		t.Fatalf("auto small k = %v, want ta", small.Method)
	}
	large, err := eng.Query(q, 500, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if large.Method != MethodMerge {
		t.Fatalf("auto large k = %v, want merge", large.Method)
	}
}

func TestMultiClauseAncestorSupport(t *testing.T) {
	// A sec inside an article that matches the article-level about must
	// outrank an identical sec whose article does not match.
	col := &corpus.Collection{}
	col.Docs = []corpus.Document{
		{ID: 0, Data: []byte(`<article><atl>quantum title</atl><sec>retrieval retrieval</sec></article>`)},
		{ID: 1, Data: []byte(`<article><atl>plain title</atl><sec>retrieval retrieval</sec></article>`)},
	}
	eng, err := CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(`//article[about(., quantum)]//sec[about(., retrieval)]`, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	if res.Answers[0].Doc != 0 {
		t.Fatalf("doc 0's sec (with matching article) should rank first; got doc %d", res.Answers[0].Doc)
	}
	if res.Answers[0].Score <= res.Answers[1].Score {
		t.Fatalf("ancestor support did not raise the score: %v vs %v",
			res.Answers[0].Score, res.Answers[1].Score)
	}
}

func TestDescendantSupport(t *testing.T) {
	// Q233-style: answers are articles, scored via their bdy descendants.
	col := &corpus.Collection{}
	col.Docs = []corpus.Document{
		{ID: 0, Data: []byte(`<article><bdy>synthesizers music</bdy></article>`)},
		{ID: 1, Data: []byte(`<article><bdy>unrelated words</bdy></article>`)},
	}
	eng, err := CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(`//article[about(.//bdy, synthesizers) and about(.//bdy, music)]`, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d, want 1: %+v", len(res.Answers), res.Answers)
	}
	if res.Answers[0].Doc != 0 || !strings.HasSuffix(res.Answers[0].Path, "article") {
		t.Fatalf("answer = %+v", res.Answers[0])
	}
}

func TestNegatedTermsLowerRank(t *testing.T) {
	col := &corpus.Collection{}
	col.Docs = []corpus.Document{
		{ID: 0, Data: []byte(`<article><figure><caption>renaissance painting pure</caption></figure></article>`)},
		{ID: 1, Data: []byte(`<article><figure><caption>renaissance painting french german french</caption></figure></article>`)},
	}
	eng, err := CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(`//article//figure[about(., renaissance painting -french -german)]`, 10, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	if res.Answers[0].Doc != 0 {
		t.Fatalf("negation did not demote doc 1: %+v", res.Answers)
	}
}

func TestPersistenceReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trex.db")
	col := corpus.GenerateIEEE(15, 3)
	eng, err := Create(path, col, &Options{StoreDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	const q = `//article//sec[about(., ontologies case study)]`
	if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(q, 10, MethodMerge)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.Summary().NumNodes() != eng.Summary().NumNodes() {
		t.Fatal("summary changed across reopen")
	}
	got, err := eng2.Query(q, 10, MethodMerge)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if got.Answers[i] != want.Answers[i] {
			t.Fatalf("answer %d differs after reopen", i)
		}
	}
	// Documents survive too.
	data, err := eng2.Document(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(col.Docs[0].Data) {
		t.Fatal("document bytes changed across reopen")
	}
}

func TestOpenNonTrexDBFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.db")
	// Create a valid storage DB without TReX content.
	eng, err := Open(path, nil)
	if err == nil {
		eng.Close()
		t.Fatal("Open of non-TReX database succeeded")
	}
}

func TestUnsafeSummaryRejected(t *testing.T) {
	col := &corpus.Collection{}
	col.Docs = []corpus.Document{{ID: 0, Data: []byte(`<a><b><a>x</a></b></a>`)}}
	_, err := CreateMemory(col, &Options{SummaryKind: summary.KindTag})
	if err == nil {
		t.Fatal("tag summary over recursive data accepted")
	}
}

func TestQueryParseErrorPropagates(t *testing.T) {
	eng := testEngine(t, 5, 1)
	if _, err := eng.Query(`not a query`, 10, MethodAuto); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := eng.Query(`//article`, 10, MethodAuto); err == nil {
		t.Fatal("query without about() accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	if MethodAuto.String() != "auto" || MethodERA.String() != "era" ||
		MethodTA.String() != "ta" || MethodMerge.String() != "merge" {
		t.Fatal("method strings")
	}
	if SolverGreedy.String() != "greedy" || SolverLP.String() != "lp" || SolverOptimal.String() != "optimal" {
		t.Fatal("solver strings")
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for m := Method(0); int(m) < numMethods; m++ {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if m, err := ParseMethod(""); err != nil || m != MethodAuto {
		t.Fatalf(`ParseMethod("") = %v, %v; want auto`, m, err)
	}
	for _, s := range []string{"race", "bogus", "ERA", " ta"} {
		if _, err := ParseMethod(s); err == nil {
			t.Fatalf("ParseMethod(%q) accepted", s)
		}
	}
}

func TestMethodNRAAgreesAtEngineLevel(t *testing.T) {
	eng := testEngine(t, 20, 91)
	const q = `//article//sec[about(., ontologies case study)]`
	if _, err := eng.Materialize(q, index.KindRPL); err != nil {
		t.Fatal(err)
	}
	ok, err := eng.CanUse(q, MethodNRA)
	if err != nil || !ok {
		t.Fatalf("NRA unavailable after RPL materialize: %v, %v", ok, err)
	}
	era, err := eng.Query(q, 15, MethodERA)
	if err != nil {
		t.Fatal(err)
	}
	nra, err := eng.Query(q, 15, MethodNRA)
	if err != nil {
		t.Fatal(err)
	}
	if nra.Method != MethodNRA || MethodNRA.String() != "nra" {
		t.Fatalf("method = %v", nra.Method)
	}
	if len(era.Answers) != len(nra.Answers) {
		t.Fatalf("answers %d vs %d", len(era.Answers), len(nra.Answers))
	}
	for i := range era.Answers {
		if era.Answers[i] != nra.Answers[i] {
			t.Fatalf("answer %d differs:\n%+v\n%+v", i, era.Answers[i], nra.Answers[i])
		}
	}
	if nra.Stats.RandomAccesses != 0 {
		t.Fatalf("NRA did %d random accesses", nra.Stats.RandomAccesses)
	}
}

func TestEngineBackup(t *testing.T) {
	eng := testEngine(t, 12, 111)
	const q = `//article//sec[about(., ontologies case study)]`
	if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(q, 5, MethodMerge)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/copy.trexdb"
	if err := eng.Backup(path); err != nil {
		t.Fatal(err)
	}
	copyEng, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer copyEng.Close()
	got, err := copyEng.Query(q, 5, MethodMerge)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("backup answers = %d, want %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if got.Answers[i] != want.Answers[i] {
			t.Fatalf("backup answer %d differs", i)
		}
	}
}

// TestMaterializeWithoutKindsIsRejected: Materialize with no list kind used
// to score every element, write nothing, commit and flush, and report
// success. It is an error now, before the engine reads or writes a page
// or marks a list.
func TestMaterializeWithoutKindsIsRejected(t *testing.T) {
	eng := testEngine(t, 20, 5)
	const q = `//article//sec[about(., ontologies case study)]`
	before := eng.DB().Stats()
	if ms, err := eng.Materialize(q); !errors.Is(err, retrieval.ErrNoListKinds) || ms != nil {
		t.Fatalf("Materialize with no kinds = (%v, %v), want ErrNoListKinds", ms, err)
	}
	d := eng.DB().Stats().Sub(before)
	if d.CacheHits+d.CacheMisses != 0 || d.Puts != 0 || d.PagesWritten != 0 || d.Flushes != 0 {
		t.Fatalf("a rejected Materialize touched the database: %+v", d)
	}
	for _, m := range []Method{MethodTA, MethodMerge} {
		if ok, err := eng.CanUse(q, m); err != nil || ok {
			t.Fatalf("CanUse(%v) = (%v, %v) after a rejected Materialize", m, ok, err)
		}
	}
}
