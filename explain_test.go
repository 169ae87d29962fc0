package trex

import (
	"strings"
	"testing"

	"trex/internal/index"
)

func TestExplain(t *testing.T) {
	eng := testEngine(t, 20, 44)
	const q = `//article[about(., ontologies)]//sec[about(., ontologies case study -noise)]`
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumTerms != 5 { // ontologies + ontologies case study + noise
		t.Fatalf("NumTerms = %d, want 5", ex.NumTerms)
	}
	if len(ex.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(ex.Clauses))
	}
	if !strings.Contains(ex.Clauses[0], "support") || !strings.Contains(ex.Clauses[1], "target") {
		t.Fatalf("clause roles wrong: %v", ex.Clauses)
	}
	if !strings.Contains(ex.Clauses[1], "-noise") {
		t.Fatalf("negated term missing: %v", ex.Clauses[1])
	}
	if ex.RPLCovered || ex.ERPLCovered {
		t.Fatal("coverage claimed before materialization")
	}
	if ex.MethodAtSmallK != MethodERA || ex.MethodAtLargeK != MethodERA {
		t.Fatalf("methods = %v, %v", ex.MethodAtSmallK, ex.MethodAtLargeK)
	}
	if len(ex.TargetPaths) == 0 {
		t.Fatal("no target paths")
	}
	for _, p := range ex.TargetPaths {
		if !strings.HasSuffix(p, "/sec") {
			t.Fatalf("target path %q not a sec extent", p)
		}
	}

	if _, err := eng.Materialize(q, index.KindRPL, index.KindERPL); err != nil {
		t.Fatal(err)
	}
	ex2, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex2.RPLCovered || !ex2.ERPLCovered {
		t.Fatal("coverage not reflected after materialization")
	}
	// A support clause makes retrieval produce every match at any k, so
	// auto plans at k = 0 (all answers) for small and large k alike.
	if ex2.MethodAtSmallK != MethodMerge || ex2.MethodAtLargeK != MethodMerge {
		t.Fatalf("methods = %v, %v", ex2.MethodAtSmallK, ex2.MethodAtLargeK)
	}
	if ex2.PlanFeatures == nil || ex2.PlanFeatures.K != 0 {
		t.Fatalf("plan features %+v, want K = 0", ex2.PlanFeatures)
	}
	if ex2.ListVolume <= 0 {
		t.Fatalf("ListVolume = %d", ex2.ListVolume)
	}
	s := ex2.String()
	for _, want := range []string{"translation:", "targets:", "auto method:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
	if _, err := eng.Explain(`broken [`); err == nil {
		t.Fatal("bad query accepted")
	}
}
