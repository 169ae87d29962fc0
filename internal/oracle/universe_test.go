package oracle_test

import (
	"math/rand"
	"strings"
	"testing"

	"trex/internal/oracle"
	"trex/internal/retrieval"
)

// TestJSONXMLDifferential200Cases is the cross-universe oracle sweep:
// 200 seeded cases, each indexing a generated JSON collection and its
// canonical XML rendering independently and asserting ERA, TA, NRA, and
// Merge return byte-identical rankings over the v2, split, and segment
// stores in both universes. Identity and scores hinge on byte offsets
// and element lengths in the canonical rendering, so any mapping drift
// (offsets, lengths, tokenization) fails loudly here.
func TestJSONXMLDifferential200Cases(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			c := oracle.NewCase(rand.New(rand.NewSource(seed)), seed)
			m, err := oracle.CheckUniverse(c)
			if err != nil {
				t.Fatalf("seed %d: harness error: %v (case %+v)", seed, err, c)
			}
			if m != nil {
				t.Fatalf("seed %d: %s\n\n%s", seed, m, shrunkUniverseRepro(m.Case))
			}
		})
	}
}

// shrunkUniverseRepro minimizes a failing cross-universe case and
// renders its paste-ready regression test.
func shrunkUniverseRepro(c oracle.Case) string {
	failing := func(c oracle.Case) bool {
		m, err := oracle.CheckUniverse(c)
		return err == nil && m != nil
	}
	shrunk := oracle.Shrink(c, failing)
	m, err := oracle.CheckUniverse(shrunk)
	if err != nil || m == nil {
		m = &oracle.Mismatch{Case: shrunk, Store: "?", Strategy: "?", Detail: "shrink lost the failure", Universe: true}
	}
	return m.Repro()
}

// TestUniversePerturbationShrinks proves the cross-universe harness
// catches drift: corrupting one strategy's output in one universe cell
// must be flagged, shrink to a 1-minimal case, and print a
// CheckUniverse regression.
func TestUniversePerturbationShrinks(t *testing.T) {
	perturb := func(store, strategy string, res []retrieval.Scored) []retrieval.Scored {
		if store == "json/v2" && strategy == "Merge" && len(res) > 0 {
			return res[:len(res)-1]
		}
		return res
	}
	failing := func(c oracle.Case) bool {
		m, err := oracle.CheckUniversePerturbed(c, perturb)
		return err == nil && m != nil
	}

	var c oracle.Case
	found := false
	for seed := int64(1); seed <= 50 && !found; seed++ {
		c = oracle.NewCase(rand.New(rand.NewSource(seed)), seed)
		found = failing(c)
	}
	if !found {
		t.Fatal("no seed in 1..50 produced Merge answers on the json/v2 cell — JSON generator is broken")
	}

	shrunk := oracle.Shrink(c, failing)
	if !failing(shrunk) {
		t.Fatalf("shrunk case no longer fails: %+v", shrunk)
	}
	for i := range shrunk.DocIDs {
		if len(shrunk.DocIDs) > 1 {
			cand := shrunk
			cand.DocIDs = append(append([]int(nil), shrunk.DocIDs[:i]...), shrunk.DocIDs[i+1:]...)
			if failing(cand) {
				t.Fatalf("not 1-minimal: doc %d is removable", shrunk.DocIDs[i])
			}
		}
	}
	m, err := oracle.CheckUniversePerturbed(shrunk, perturb)
	if err != nil || m == nil {
		t.Fatalf("CheckUniversePerturbed on shrunk case = %v, %v", m, err)
	}
	repro := m.Repro()
	if !strings.Contains(repro, "oracle.CheckUniverse(c)") {
		t.Fatalf("repro does not target CheckUniverse:\n%s", repro)
	}
}
