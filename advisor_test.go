package trex

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"trex/internal/corpus"
	"trex/internal/index"
)

// TestListKeyUnambiguous pins the physical-list key encoding: no two
// distinct (kind, term, sid) triples may share a key, or the solver's
// sharing model would treat distinct lists as one (undercounting disk
// and cross-crediting savings). Terms containing '/' and digits are the
// adversarial cases: the sid field is placed before the term so the term
// (the only free-form field) is always last.
func TestListKeyUnambiguous(t *testing.T) {
	if got := listKey(index.KindRPL, "xml", 7); got != "R/7/xml" {
		t.Fatalf("listKey format changed: %q", got)
	}
	terms := []string{"", "a", "a/1", "a/1/2", "1", "1/a", "/", "a/", "/a", "12/3"}
	sids := []uint32{0, 1, 2, 12, 123, 1234}
	seen := make(map[string]string)
	for _, kind := range []index.ListKind{index.KindRPL, index.KindERPL} {
		for _, term := range terms {
			for _, sid := range sids {
				key := listKey(kind, term, sid)
				id := fmt.Sprintf("(%c,%q,%d)", byte(kind), term, sid)
				if prev, ok := seen[key]; ok {
					t.Fatalf("key collision: %s and %s both map to %q", prev, id, key)
				}
				seen[key] = id
			}
		}
	}
}

func TestSelfManageGreedy(t *testing.T) {
	eng := testEngine(t, 30, 11)
	workload := []WorkloadQuery{
		{NEXI: `//article//sec[about(., ontologies case study)]`, Freq: 0.5, K: 10},
		{NEXI: `//article[about(., xml query evaluation)]`, Freq: 0.3, K: 10},
		{NEXI: `//article//p[about(., model checking)]`, Freq: 0.2, K: 10},
	}
	report, err := eng.SelfManage(workload, 1<<40, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if report.Plan == nil || len(report.Plan.Assignments) != 3 {
		t.Fatalf("plan = %+v", report.Plan)
	}
	// With unlimited disk, every query with any positive saving gets an
	// index; the planted topics guarantee matches, so savings exist.
	if report.Plan.Saving <= 0 {
		t.Fatalf("saving = %v, want > 0", report.Plan.Saving)
	}
	if len(report.KeptLists) == 0 {
		t.Fatal("nothing kept under unlimited budget")
	}
	// Every kept list must be materialized; dropped ones must be gone.
	for _, q := range workload {
		tr, err := eng.Translate(q.NEXI)
		if err != nil {
			t.Fatal(err)
		}
		sids, terms := flatten(tr)
		for i, c := range report.Plan.Assignments {
			if workload[i].NEXI != q.NEXI {
				continue
			}
			switch c {
			case 1: // StrategyMerge
				cov, err := eng.store.Covered(index.KindERPL, terms, sids)
				if err != nil || !cov {
					t.Fatalf("query %d assigned merge but ERPLs not covered: %v %v", i, cov, err)
				}
			case 2: // StrategyTA
				cov, err := eng.store.Covered(index.KindRPL, terms, sids)
				if err != nil || !cov {
					t.Fatalf("query %d assigned ta but RPLs not covered: %v %v", i, cov, err)
				}
			}
		}
	}
}

func TestSelfManageZeroBudgetDropsEverything(t *testing.T) {
	eng := testEngine(t, 20, 13)
	workload := []WorkloadQuery{
		{NEXI: `//article//sec[about(., ontologies)]`, Freq: 1.0, K: 10},
	}
	report, err := eng.SelfManage(workload, 0, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.KeptLists) != 0 {
		t.Fatalf("kept %v under zero budget", report.KeptLists)
	}
	if report.DroppedEntries == 0 {
		t.Fatal("expected measurement lists to be dropped")
	}
	// The query must now fall back to ERA.
	res, err := eng.Query(workload[0].NEXI, 10, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodERA {
		t.Fatalf("method after drop = %v, want era", res.Method)
	}
}

func TestSelfManageRespectsBudget(t *testing.T) {
	eng := testEngine(t, 25, 17)
	workload := []WorkloadQuery{
		{NEXI: `//article//sec[about(., ontologies case study)]`, Freq: 0.6, K: 10},
		{NEXI: `//article//p[about(., information retrieval)]`, Freq: 0.4, K: 10},
	}
	// First run unlimited to learn the full footprint.
	full, err := eng.SelfManage(workload, 1<<40, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Plan.DiskUsed / 2
	if budget == 0 {
		t.Skip("lists too small to halve")
	}
	report, err := eng.SelfManage(workload, budget, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if report.Plan.DiskUsed > budget {
		t.Fatalf("plan used %d > budget %d", report.Plan.DiskUsed, budget)
	}
}

func TestSelfManageSolversAgreeOnEasyWorkload(t *testing.T) {
	eng := testEngine(t, 20, 19)
	workload := []WorkloadQuery{
		{NEXI: `//article//sec[about(., ontologies)]`, Freq: 0.5, K: 10},
		{NEXI: `//article//p[about(., model checking)]`, Freq: 0.5, K: 10},
	}
	greedy, err := eng.SelfManage(workload, 1<<40, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := eng.SelfManage(workload, 1<<40, SolverLP)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := eng.SelfManage(workload, 1<<40, SolverOptimal)
	if err != nil {
		t.Fatal(err)
	}
	// With unlimited disk all three pick the per-query best strategy.
	if greedy.Plan.Saving != lp.Plan.Saving || lp.Plan.Saving != opt.Plan.Saving {
		t.Fatalf("savings differ: greedy=%v lp=%v optimal=%v",
			greedy.Plan.Saving, lp.Plan.Saving, opt.Plan.Saving)
	}
}

func TestSelfManageEmptyWorkload(t *testing.T) {
	eng := testEngine(t, 5, 1)
	if _, err := eng.SelfManage(nil, 100, SolverGreedy); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestSelfManageQueriesStillCorrectAfterPlan(t *testing.T) {
	// After the advisor drops some lists, auto evaluation must still
	// return the same answers (via fallback strategies).
	eng := testEngine(t, 25, 23)
	queries := []WorkloadQuery{
		{NEXI: `//article//sec[about(., ontologies case study)]`, Freq: 0.7, K: 10},
		{NEXI: `//article//p[about(., information retrieval)]`, Freq: 0.3, K: 10},
	}
	var before []*Result
	for _, q := range queries {
		r, err := eng.Query(q.NEXI, 10, MethodERA)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, r)
	}
	if _, err := eng.SelfManage(queries, 1<<20, SolverGreedy); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		r, err := eng.Query(q.NEXI, 10, MethodAuto)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Answers) != len(before[i].Answers) {
			t.Fatalf("query %d: answers %d != %d after self-manage",
				i, len(r.Answers), len(before[i].Answers))
		}
		for j := range r.Answers {
			if r.Answers[j] != before[i].Answers[j] {
				t.Fatalf("query %d answer %d changed after self-manage:\n%+v\n%+v",
					i, j, r.Answers[j], before[i].Answers[j])
			}
		}
	}
	_ = corpus.StyleIEEE
}

// TestSelfManagePricesERAFromTheBuildPass: when SelfManage builds a query's
// lists it prices ERA from the build's own ERA pass instead of running
// ExhaustiveTopKCtx again. The report — every query's TimeERA, TimeTA and
// TimeMerge, the plan, the kept and dropped lists and the planner's
// routing — must be what an engine whose lists were all built beforehand
// reports, where every ERA price comes from a fresh ExhaustiveTopKCtx. The
// second query's lists are a subset of the first's, so the first engine
// also prices one query the fresh way.
func TestSelfManagePricesERAFromTheBuildPass(t *testing.T) {
	workload := []WorkloadQuery{
		{NEXI: `//article//sec[about(., ontologies case study)]`, Freq: 0.4, K: 10},
		{NEXI: `//article//sec[about(., ontologies)]`, Freq: 0.2, K: 5},
		{NEXI: `//article[about(., xml query evaluation)]`, Freq: 0.3, K: 10},
		{NEXI: `//bdy//*[about(., model checking state space)]`, Freq: 0.1, K: 100},
	}
	built := testEngine(t, 40, 17)
	prebuilt := testEngine(t, 40, 17)
	for _, q := range workload {
		if _, err := prebuilt.Materialize(q.NEXI, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 60000
	got, err := built.SelfManage(workload, budget, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prebuilt.SelfManage(workload, budget, SolverGreedy)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range got.Workload.Queries {
		w := want.Workload.Queries[i]
		if q.TimeERA != w.TimeERA || q.TimeTA != w.TimeTA || q.TimeMerge != w.TimeMerge {
			t.Fatalf("query %d: ERA/TA/Merge cost %v/%v/%v, priced fresh %v/%v/%v",
				i, q.TimeERA, q.TimeTA, q.TimeMerge, w.TimeERA, w.TimeTA, w.TimeMerge)
		}
	}
	if !reflect.DeepEqual(got.Workload, want.Workload) || !reflect.DeepEqual(got.Plan, want.Plan) ||
		!reflect.DeepEqual(got.KeptLists, want.KeptLists) || !reflect.DeepEqual(got.DroppedLists, want.DroppedLists) ||
		!reflect.DeepEqual(got.Routed, want.Routed) || got.DroppedEntries != want.DroppedEntries {
		t.Fatalf("reports differ:\n build pass %+v\n fresh ERA  %+v", got, want)
	}
	if len(got.KeptLists) == 0 || len(got.DroppedLists) == 0 {
		t.Fatalf("fixture: the budget should keep some lists and drop others (kept %d, dropped %d)",
			len(got.KeptLists), len(got.DroppedLists))
	}
}

// cancelAt is a context that reports context.Canceled from its n-th Err
// call on and never closes Done. selfManage polls Err once before each
// workload query and once after its measurement, while the strategies
// poll only Done, so it cancels a re-plan at one exact point between
// queries.
type cancelAt struct {
	context.Context
	n, calls int
}

func (c *cancelAt) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSelfManageFailureLeavesStoreUntouched: a re-plan that stops before
// its plan is applied — a workload query that does not translate, or a
// context cancelled between queries — has written nothing. The catalog,
// the list epoch, the served segment generation and the result cache's
// write epoch are what they were, and reads still come off the segment.
// The first workload query shares its "ontologies" pairs with lists
// built before the run and adds a term that is not built, so its build
// replaces committed lists in the draft.
func TestSelfManageFailureLeavesStoreUntouched(t *testing.T) {
	eng := testEngineOpts(t, 40, 31, &Options{SegmentLists: true})
	pre := `//article//sec[about(., ontologies case study)]`
	if _, err := eng.Materialize(pre, index.KindRPL, index.KindERPL); err != nil {
		t.Fatal(err)
	}
	workload := []WorkloadQuery{
		{NEXI: `//article//sec[about(., ontologies retrieval)]`, Freq: 0.4, K: 10},
		{NEXI: `//article[about(., xml query evaluation)]`, Freq: 0.3, K: 10},
		{NEXI: `//article[about(., `, Freq: 0.2, K: 10},
		{NEXI: `//bdy//*[about(., model checking)]`, Freq: 0.1, K: 10},
	}
	type state struct {
		catalog    []index.CatalogEntry
		listEpoch  uint64
		generation uint64
		writeEpoch uint64
	}
	snapshot := func() state {
		t.Helper()
		catalog, err := eng.Store().CatalogEntries()
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := eng.Store().ListEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return state{catalog, epoch, eng.Store().Segments().Generation(), eng.writeEpoch.Load()}
	}
	before := snapshot()
	if len(before.catalog) == 0 {
		t.Fatal("fixture: no lists built before the re-plan")
	}
	for _, run := range []struct {
		name string
		plan func() error
	}{
		{"untranslatable", func() error {
			_, err := eng.SelfManage(workload, 1<<40, SolverGreedy)
			return err
		}},
		{"cancelled", func() error {
			ok := []WorkloadQuery{workload[0], workload[1], workload[3]}
			_, err := eng.selfManage(&cancelAt{Context: context.Background(), n: 4}, ok, 1<<40, SolverGreedy, selfManageConfig{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled re-plan returned %v, want context.Canceled", err)
			}
			return err
		}},
	} {
		if err := run.plan(); err == nil {
			t.Fatalf("%s: re-plan succeeded", run.name)
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the failed re-plan changed the store:\n before %+v\n after  %+v", run.name, before, after)
		}
		rows := eng.Store().Segments().RowsRead()
		if _, err := eng.Query(pre, 5, MethodTA); err != nil {
			t.Fatal(err)
		}
		if eng.Store().Segments().RowsRead() == rows {
			t.Fatalf("%s: TA no longer reads from the segment after the failed re-plan", run.name)
		}
	}
}
