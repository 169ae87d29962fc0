package oracle_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"trex"
	"trex/internal/oracle"
	"trex/internal/retrieval"
)

// TestDifferential200Cases is the CI-mode oracle sweep: 200 seeded cases,
// each asserting byte-identical rankings from TA, NRA, Merge, and the
// planner-routed Auto column against the exhaustive baseline across the
// v2, split and segment stores.
func TestDifferential200Cases(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			c := oracle.NewCase(rand.New(rand.NewSource(seed)), seed)
			m, err := oracle.Check(c)
			if err != nil {
				t.Fatalf("seed %d: harness error: %v (case %+v)", seed, err, c)
			}
			if m != nil {
				t.Fatalf("seed %d: %s\n\n%s", seed, m, shrunkRepro(m.Case))
			}
		})
	}
}

// shrunkRepro minimizes a genuinely failing case and renders its
// regression test, so a red oracle run prints something paste-ready.
func shrunkRepro(c oracle.Case) string {
	failing := func(c oracle.Case) bool {
		m, err := oracle.Check(c)
		return err == nil && m != nil
	}
	shrunk := oracle.Shrink(c, failing)
	m, err := oracle.Check(shrunk)
	if err != nil || m == nil {
		m = &oracle.Mismatch{Case: shrunk, Store: "?", Strategy: "?", Detail: "shrink lost the failure"}
	}
	return m.Repro()
}

// TestPerturbationShrinksToMinimalRepro proves the harness end to end by
// corrupting one strategy's output: the oracle must flag it, Shrink must
// converge on a 1-minimal case that still fails, and Repro must print
// the same regression test on every run.
func TestPerturbationShrinksToMinimalRepro(t *testing.T) {
	// Drop NRA's last answer on the v2 store — a deterministic "bug"
	// that fires whenever that configuration returns any answers.
	perturb := func(store, strategy string, res []retrieval.Scored) []retrieval.Scored {
		if store == "v2" && strategy == "NRA" && len(res) > 0 {
			return res[:len(res)-1]
		}
		return res
	}
	failing := func(c oracle.Case) bool {
		m, err := oracle.CheckPerturbed(c, perturb)
		return err == nil && m != nil
	}

	// Find a seeded case the bug bites (deterministic scan).
	var c oracle.Case
	found := false
	for seed := int64(1); seed <= 50 && !found; seed++ {
		c = oracle.NewCase(rand.New(rand.NewSource(seed)), seed)
		found = failing(c)
	}
	if !found {
		t.Fatal("no seed in 1..50 produced NRA answers on the v2 store — generator is broken")
	}

	shrunk := oracle.Shrink(c, failing)
	if !failing(shrunk) {
		t.Fatalf("shrunk case no longer fails: %+v", shrunk)
	}
	if len(shrunk.DocIDs) > len(c.DocIDs) || len(shrunk.Terms) > len(c.Terms) || len(shrunk.SIDs) > len(c.SIDs) {
		t.Fatalf("shrink grew the case: %+v -> %+v", c, shrunk)
	}
	// 1-minimality: removing any single remaining component must make
	// the failure vanish (Shrink ran to a fixpoint).
	for i := range shrunk.DocIDs {
		if len(shrunk.DocIDs) > 1 {
			cand := shrunk
			cand.DocIDs = append(append([]int(nil), shrunk.DocIDs[:i]...), shrunk.DocIDs[i+1:]...)
			if failing(cand) {
				t.Fatalf("not 1-minimal: doc %d is removable", shrunk.DocIDs[i])
			}
		}
	}
	for i := range shrunk.Terms {
		if len(shrunk.Terms) > 1 {
			cand := shrunk
			cand.Terms = append(append([]string(nil), shrunk.Terms[:i]...), shrunk.Terms[i+1:]...)
			if failing(cand) {
				t.Fatalf("not 1-minimal: term %q is removable", shrunk.Terms[i])
			}
		}
	}

	m, err := oracle.CheckPerturbed(shrunk, perturb)
	if err != nil || m == nil {
		t.Fatalf("CheckPerturbed on shrunk case = %v, %v", m, err)
	}
	repro := m.Repro()
	if !strings.Contains(repro, "func TestOracleRegressionSeed") ||
		!strings.Contains(repro, "oracle.Check(c)") {
		t.Fatalf("repro is not a paste-ready test:\n%s", repro)
	}
	// Determinism: the whole pipeline replays to the identical repro.
	m2, err := oracle.CheckPerturbed(oracle.Shrink(c, failing), perturb)
	if err != nil || m2 == nil {
		t.Fatal("replay lost the failure")
	}
	if m2.Repro() != repro {
		t.Fatalf("repro is not deterministic:\n--- first\n%s\n--- second\n%s", repro, m2.Repro())
	}
	t.Logf("shrunk %d docs to %d; repro:\n%s", len(c.DocIDs), len(shrunk.DocIDs), repro)
}

// TestAutopilotDifferential is the engine-level half of the oracle: on a
// static collection, MethodAuto under a concurrently re-planning
// autopilot must return exactly the answers MethodERA returns on an
// untouched twin engine — materialization and drops happening between
// (and during) queries must never change a ranking.
func TestAutopilotDifferential(t *testing.T) {
	col := oracle.GenCollection(7, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	queries := []string{
		`//r[about(., ax)]`,
		`//s[about(., bx cx)]`,
		`//t[about(., dx)]//u[about(., ex)]`,
		`//u[about(., ax ex)]`,
	}

	plain, err := trex.CreateMemory(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want := make(map[string]*trex.Result, len(queries))
	for _, q := range queries {
		res, err := plain.Query(q, 5, trex.MethodERA)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want[q] = res
	}

	piloted, err := trex.CreateMemory(col, &trex.Options{Autopilot: &trex.AutopilotOptions{
		Interval:     2 * time.Millisecond,
		DriftQueries: 1,
		Decay:        1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer piloted.Close()

	deadline := time.Now().Add(5 * time.Second)
	rounds := 0
	for time.Now().Before(deadline) {
		for _, q := range queries {
			res, err := piloted.Query(q, 5, trex.MethodAuto)
			if err != nil {
				t.Fatalf("round %d %q: %v", rounds, q, err)
			}
			w := want[q]
			if len(res.Answers) != len(w.Answers) {
				t.Fatalf("round %d %q: %d answers, want %d", rounds, q, len(res.Answers), len(w.Answers))
			}
			for i := range w.Answers {
				if res.Answers[i] != w.Answers[i] {
					t.Fatalf("round %d %q rank %d (method %v): %+v, want %+v",
						rounds, q, i, res.Method, res.Answers[i], w.Answers[i])
				}
			}
		}
		rounds++
		st := piloted.AutopilotStatus()
		if st.Runs >= 3 && rounds >= 20 {
			break
		}
	}
	st := piloted.AutopilotStatus()
	if st.Runs == 0 {
		t.Fatal("autopilot never ran — the differential proved nothing")
	}
	if st.Failures != 0 {
		t.Fatalf("autopilot failed %d times: %s", st.Failures, st.LastError)
	}
	t.Logf("%d query rounds against %d autopilot runs, rankings identical", rounds, st.Runs)
}
