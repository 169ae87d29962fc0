package trex

import (
	"fmt"
	"sync"
	"testing"

	"trex/internal/index"
	"trex/internal/oracle/gen"
)

// plannerTestQueries builds the tag × word grid over the oracle corpus:
// twenty single-clause queries with genuinely different list volumes.
func plannerTestQueries() []string {
	var qs []string
	for _, tag := range []string{"r", "s", "t", "u"} {
		for _, word := range []string{"ax", "bx", "cx", "dx", "ex"} {
			qs = append(qs, fmt.Sprintf("//%s[about(., %s)]", tag, word))
		}
	}
	return qs
}

// TestPlannerConvergence calibrates the planner by running every query
// under every fixed method (each exact run feeds the model), then checks
// that MethodAuto routes at least 90% of the workload to the method the
// measurements themselves say is cheapest. Fully deterministic: costs
// are CostProxy values and the model's update order is the loop order.
func TestPlannerConvergence(t *testing.T) {
	docs := make([]int, 48)
	for i := range docs {
		docs[i] = i
	}
	col := gen.Collection(11, docs)
	eng, err := CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	queries := plannerTestQueries()
	const k = 5
	methods := []Method{MethodERA, MethodTA, MethodNRA, MethodMerge}
	costs := make(map[string]map[Method]float64, len(queries))
	for _, q := range queries {
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			t.Fatalf("materialize %q: %v", q, err)
		}
		costs[q] = make(map[Method]float64, len(methods))
		for _, m := range methods {
			res, err := eng.Query(q, k, m)
			if err != nil {
				t.Fatalf("calibrate %q with %v: %v", q, m, err)
			}
			if res.Stats == nil || res.Stats.Approximate {
				t.Fatalf("calibrate %q with %v: no exact stats", q, m)
			}
			costs[q][m] = res.Stats.CostProxy()
		}
	}

	matches := 0
	for _, q := range queries {
		res, err := eng.Query(q, k, MethodAuto)
		if err != nil {
			t.Fatalf("auto %q: %v", q, err)
		}
		if res.Plan == nil {
			t.Fatalf("auto %q: no plan attached", q)
		}
		if res.Plan.ColdStart {
			t.Fatalf("auto %q: still cold-starting after calibration", q)
		}
		if got := toEngineMethod(res.Plan.Method); got != res.Method {
			t.Fatalf("auto %q: plan says %v, ran %v", q, got, res.Method)
		}
		best := methods[0]
		for _, m := range methods[1:] {
			if costs[q][m] < costs[q][best] {
				best = m
			}
		}
		// A pick that measures no worse than the cheapest is a match too
		// (ties are real: tiny lists cost the same under TA and NRA).
		if res.Method == best || costs[q][res.Method] <= costs[q][best] {
			matches++
		} else {
			t.Logf("%q: auto ran %v (measured %v), cheapest %v (measured %v)",
				q, res.Method, costs[q][res.Method], best, costs[q][best])
		}
	}
	if frac := float64(matches) / float64(len(queries)); frac < 0.9 {
		t.Fatalf("auto matched the measured-cheapest method on %d/%d queries (%.0f%%), want >= 90%%",
			matches, len(queries), frac*100)
	}
	eng.DrainShadows()
}

// TestShadowSamplingRace races shadow-sampled auto queries against
// concurrent index maintenance (materialize and self-manage cycles that
// drop lists mid-flight). Run under -race; the invariant is simply that
// nothing tears: queries succeed, shadows drain, and the engine's
// counters account for every sample.
func TestShadowSamplingRace(t *testing.T) {
	col := gen.Collection(23, []int{0, 1, 2, 3, 4, 5, 6, 7})
	eng, err := CreateMemory(col, &Options{Planner: &PlannerOptions{ShadowFraction: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	queries := plannerTestQueries()[:8]
	for _, q := range queries {
		if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(g*7+i)%len(queries)]
				// NoCache so every iteration actually plans (a cache hit
				// would skip the planner and its shadow launch).
				if _, err := eng.QueryOpts(q, QueryOptions{K: 5, NoCache: true}); err != nil {
					t.Errorf("auto %q: %v", q, err)
					return
				}
			}
		}(g)
	}

	// Maintenance churn: alternate a zero-budget self-manage pass (drops
	// every referenced list) with re-materialization, flipping coverage
	// under the feet of in-flight shadows.
	workload := []WorkloadQuery{
		{NEXI: queries[0], Freq: 0.5, K: 5},
		{NEXI: queries[1], Freq: 0.5, K: 5},
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.SelfManage(workload, 0, SolverGreedy); err != nil {
			t.Fatalf("self-manage round %d: %v", i, err)
		}
		for _, q := range queries[:2] {
			if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
				t.Fatalf("re-materialize round %d: %v", i, err)
			}
		}
	}
	wg.Wait()
	eng.DrainShadows()

	st := eng.PlannerStatus()
	if st.ShadowSamples == 0 {
		t.Fatal("no shadow samples despite fraction 1")
	}
	var decisions uint64
	for _, n := range st.Decisions {
		decisions += n
	}
	if decisions == 0 {
		t.Fatal("no auto decisions recorded")
	}
	t.Logf("decisions=%d shadows=%d errors=%d mispredictions=%d observations=%d",
		decisions, st.ShadowSamples, st.ShadowErrors, st.Mispredictions, st.Observations)
}

// TestAutoColdStartMatchesExplain checks, on fresh engines with no
// lists, RPLs only, ERPLs only and both, that MethodAuto runs the
// cold-start rule's method and that Explain reports the same one. Queries
// with a support clause or a negated term retrieve every match whatever k
// is, so both plan them at k = 0 and pick one method for small and large
// k. A query calibrates its k band, so each k gets a fresh engine.
func TestAutoColdStartMatchesExplain(t *testing.T) {
	type listCase struct {
		kinds        []index.ListKind
		small, large Method
	}
	rpl, erpl := []index.ListKind{index.KindRPL}, []index.ListKind{index.KindERPL}
	both := []index.ListKind{index.KindRPL, index.KindERPL}
	fullEvaluation := []listCase{
		{nil, MethodERA, MethodERA},
		{rpl, MethodTA, MethodTA},
		{erpl, MethodMerge, MethodMerge},
		{both, MethodMerge, MethodMerge},
	}
	for _, qc := range []struct {
		q     string
		cases []listCase
	}{
		{`//article//sec[about(., ontologies case study)]`, []listCase{
			{nil, MethodERA, MethodERA},
			{rpl, MethodTA, MethodTA},
			{erpl, MethodMerge, MethodMerge},
			{both, MethodTA, MethodMerge},
		}},
		{`//article[about(., ontologies)]//sec[about(., ontologies case study)]`, fullEvaluation},
		{`//article//sec[about(., introduction information retrieval -music)]`, fullEvaluation},
	} {
		for _, c := range qc.cases {
			for _, kc := range []struct {
				k    int
				want Method
			}{{1, c.small}, {1_000_000, c.large}} {
				eng := testEngineOpts(t, 20, 44, &Options{Planner: &PlannerOptions{ShadowFraction: -1}})
				if c.kinds != nil {
					if _, err := eng.Materialize(qc.q, c.kinds...); err != nil {
						t.Fatal(err)
					}
				}
				ex, err := eng.Explain(qc.q)
				if err != nil {
					t.Fatal(err)
				}
				if ex.MethodAtSmallK != c.small || ex.MethodAtLargeK != c.large {
					t.Errorf("%s, lists %v: explain says %v at small k, %v at large k, want %v, %v",
						qc.q, c.kinds, ex.MethodAtSmallK, ex.MethodAtLargeK, c.small, c.large)
				}
				res, err := eng.Query(qc.q, kc.k, MethodAuto)
				if err != nil {
					t.Fatal(err)
				}
				if res.Method != kc.want {
					t.Errorf("%s, lists %v, k=%d: query ran %v, want %v", qc.q, c.kinds, kc.k, res.Method, kc.want)
				}
				if res.Plan == nil || !res.Plan.ColdStart {
					t.Errorf("%s, lists %v, k=%d: plan %+v is not a cold start", qc.q, c.kinds, kc.k, res.Plan)
				}
			}
		}
	}
}
