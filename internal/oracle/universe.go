package oracle

import (
	"context"
	"fmt"

	"trex/internal/corpus"
	"trex/internal/oracle/gen"
	"trex/internal/retrieval"
)

// CheckUniverse runs one cross-universe differential case: the seeded
// JSON collection JSONCollection(Seed, DocIDs) and its canonical XML
// rendering are indexed independently — the JSON side through the
// direct jsoncorpus mapping, the XML side through the scanner — and
// ERA, TA, NRA, and Merge over the v2, split, and segment stores in
// BOTH universes must return rankings byte-identical to the exhaustive
// baseline of the XML universe. Element identity is (doc, end byte
// offset in the canonical rendering) and scores depend on element
// lengths, so equality here proves the mapping preserves offsets,
// lengths, and term positions exactly, not merely "the same answers".
func CheckUniverse(c Case) (*Mismatch, error) {
	return checkUniverse(c, nil)
}

func checkUniverse(c Case, perturb perturbFunc) (*Mismatch, error) {
	if len(c.DocIDs) == 0 || len(c.SIDs) == 0 || len(c.Terms) == 0 {
		return nil, fmt.Errorf("oracle: degenerate case %+v", c)
	}
	jcol := gen.JSONCollection(c.Seed, c.DocIDs)
	xcol, err := gen.XMLRendering(jcol)
	if err != nil {
		return nil, fmt.Errorf("oracle: render case %+v: %w", c, err)
	}

	// Baseline: exhaustive retrieval over the XML universe's v2 store.
	xst, closeX, err := buildStoreFrom(xcol, c, storeFormats[0])
	if err != nil {
		return nil, err
	}
	defer closeX()
	sc, err := xst.NewScorer(c.Terms)
	if err != nil {
		return nil, err
	}
	base, _, err := retrieval.ExhaustiveTopKCtx(context.Background(), xst, c.SIDs, c.Terms, sc, c.K)
	if err != nil {
		return nil, err
	}

	universes := []struct {
		name string
		col  *corpus.Collection
	}{{"json", jcol}, {"xml", xcol}}
	for _, u := range universes {
		for _, format := range storeFormats {
			m, err := checkUniverseStore(c, u.name, format, u.col, base, perturb)
			if m != nil || err != nil {
				return m, err
			}
		}
	}
	return nil, nil
}

// checkUniverseStore builds one (universe, store format) cell and runs
// all four strategies against the shared baseline.
func checkUniverseStore(c Case, universe, format string, col *corpus.Collection, base []retrieval.Scored, perturb perturbFunc) (*Mismatch, error) {
	st, closeSt, err := buildStoreFrom(col, c, format)
	if err != nil {
		return nil, err
	}
	defer closeSt()
	sc, err := st.NewScorer(c.Terms)
	if err != nil {
		return nil, err
	}
	cell := universe + "/" + format
	runs := []struct {
		name string
		run  func() ([]retrieval.Scored, error)
	}{
		{"ERA", func() ([]retrieval.Scored, error) {
			r, _, err := retrieval.ExhaustiveTopKCtx(context.Background(), st, c.SIDs, c.Terms, sc, c.K)
			return r, err
		}},
		{"TA", func() ([]retrieval.Scored, error) {
			r, _, err := retrieval.TACtx(context.Background(), st, c.SIDs, c.Terms, sc, c.K)
			return r, err
		}},
		{"NRA", func() ([]retrieval.Scored, error) {
			r, _, err := retrieval.NRACtx(context.Background(), st, c.SIDs, c.Terms, c.K)
			return r, err
		}},
		{"Merge", func() ([]retrieval.Scored, error) {
			r, _, err := retrieval.MergeCtx(context.Background(), st, c.SIDs, c.Terms, c.K)
			return r, err
		}},
	}
	for _, strat := range runs {
		got, err := strat.run()
		if err != nil {
			return nil, fmt.Errorf("oracle: %s on %s: %w", strat.name, cell, err)
		}
		if perturb != nil {
			got = perturb(cell, strat.name, got)
		}
		if d := diffRankings(c.K, base, got); d != "" {
			return &Mismatch{Case: c, Store: cell, Strategy: strat.name, Detail: d, Universe: true}, nil
		}
	}
	return nil, nil
}
