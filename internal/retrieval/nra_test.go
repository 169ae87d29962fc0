package retrieval

import (
	"context"
	"testing"

	"trex/internal/corpus"
)

// TestNRAAgreesWithOtherMethods: the sorted-only variant must return the
// same ranked scores as ERA, TA and Merge.
func TestNRAAgreesWithOtherMethods(t *testing.T) {
	col := corpus.GenerateIEEE(25, 77)
	e := newEnv(t, col)
	queries := []string{
		`//article//sec[about(., ontologies case study)]`,
		`//article[about(., xml query evaluation)]`,
		`//bdy//*[about(., information retrieval)]`,
	}
	for _, src := range queries {
		sids, terms := e.clause(t, src, 0)
		e.materialize(t, sids, terms)
		sc := e.scorer(t, terms)
		for _, k := range []int{1, 3, 20, 100000} {
			era, _, err := ExhaustiveTopKCtx(context.Background(), e.store, sids, terms, sc, k)
			if err != nil {
				t.Fatal(err)
			}
			nra, _, err := NRACtx(context.Background(), e.store, sids, terms, k)
			if err != nil {
				t.Fatal(err)
			}
			if !scoresClose(scoresOf(era), scoresOf(nra)) {
				t.Fatalf("%s k=%d: ERA %v != NRA %v", src, k, head(scoresOf(era)), head(scoresOf(nra)))
			}
			for i := range era {
				if era[i].Elem != nra[i].Elem {
					t.Fatalf("%s k=%d rank %d: %+v vs %+v", src, k, i, era[i].Elem, nra[i].Elem)
				}
			}
		}
	}
}

// TestNRAReadsDeeperThanTA reproduces the structural difference the
// experiments document: without random access, NRA must keep reading
// until candidates resolve, so its sorted-access depth is at least TA's.
func TestNRAReadsDeeperThanTA(t *testing.T) {
	col := corpus.GenerateIEEE(30, 21)
	e := newEnv(t, col)
	sids, terms := e.clause(t, `//article//sec[about(., ontologies case study)]`, 0)
	e.materialize(t, sids, terms)
	sc := e.scorer(t, terms)
	for _, k := range []int{1, 10, 100} {
		_, taStats, err := TACtx(context.Background(), e.store, sids, terms, sc, k)
		if err != nil {
			t.Fatal(err)
		}
		_, nraStats, err := NRACtx(context.Background(), e.store, sids, terms, k)
		if err != nil {
			t.Fatal(err)
		}
		if nraStats.SortedAccesses < taStats.SortedAccesses {
			t.Fatalf("k=%d: NRA read %d < TA %d sorted accesses",
				k, nraStats.SortedAccesses, taStats.SortedAccesses)
		}
		if nraStats.RandomAccesses != 0 {
			t.Fatalf("NRA performed %d random accesses", nraStats.RandomAccesses)
		}
	}
}

func TestNRAEmptyInputs(t *testing.T) {
	e := handEnv(t, `<a><b>x</b></a>`)
	res, _, err := NRACtx(context.Background(), e.store, nil, []string{"x"}, 5)
	if err != nil || res != nil {
		t.Fatalf("no sids: %v, %v", res, err)
	}
	res, _, err = NRACtx(context.Background(), e.store, []uint32{1}, nil, 5)
	if err != nil || res != nil {
		t.Fatalf("no terms: %v, %v", res, err)
	}
	// Unmaterialized lists: empty result, no error.
	res, _, err = NRACtx(context.Background(), e.store, []uint32{1}, []string{"x"}, 5)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty lists: %v, %v", res, err)
	}
}

func TestNRASingleList(t *testing.T) {
	e := handEnv(t,
		`<a><b>solo solo solo</b><b>solo</b><b>solo solo</b></a>`,
	)
	sids, terms := e.clause(t, `//a//b[about(., solo)]`, 0)
	e.materialize(t, sids, terms)
	res, stats, err := NRACtx(context.Background(), e.store, sids, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Score < res[1].Score {
		t.Fatal("not descending")
	}
	if stats.Answers != 2 {
		t.Fatalf("Answers = %d", stats.Answers)
	}
}
