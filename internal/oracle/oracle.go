// Package oracle is a randomized differential-testing harness for the
// retrieval strategies. Every case generates a seeded corpus plus a
// (sids, terms, k) clause, builds three stores — "v2", the clause's
// block-encoded lists from one Materialize run; "split", the same lists
// from two runs over overlapping halves of the sids, so one term's RPL
// blocks from both runs interleave and the shared sid's drop re-encodes
// the first run's surviving blocks; and "segment", the v2 lists served
// from an immutable mmap'd segment instead of the pager — and asserts
// that TA, NRA, and Merge return rankings byte-identical to the
// exhaustive baseline on all of them — at k <= 0, where no strategy
// promises an order, the same multiset of answers and scores. No
// tolerance: the codecs round-trip scores exactly, so any drift is a bug.
//
// A fifth "Auto" column routes each case through the query planner: a
// per-case-calibrated planner picks a method from the case's feature
// vector and the oracle runs whatever it decided, asserting routing can
// never change a ranking. The calibration is seeded per case so the
// sweep exercises all four routes, not just the cold-start picks.
//
// CheckCrashRecovery additionally loops each case through a crash that
// dies between the segment fsync and the manifest swap, asserting the
// old generation serves intact after recovery.
//
// Failures shrink to a minimal (corpus, query) pair and print as a
// ready-to-paste regression test (Mismatch.Repro); because documents are
// seeded per-id (see GenDoc), a shrunk case replays deterministically.
package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"trex/internal/corpus"
	"trex/internal/faultinject"
	"trex/internal/index"
	"trex/internal/planner"
	"trex/internal/retrieval"
	"trex/internal/score"
	"trex/internal/segment"
	"trex/internal/storage"
	"trex/internal/summary"
)

// Case is one differential trial, fully determined by its fields: the
// corpus is GenCollection(Seed, DocIDs) and the clause is (SIDs, Terms)
// evaluated at top-K (K <= 0 means all answers).
type Case struct {
	Seed   int64
	DocIDs []int
	SIDs   []uint32
	Terms  []string
	K      int
}

// NewCase draws a random case from rng, stamping it with seed. The sid
// range deliberately overshoots small summaries: out-of-extent sids must
// be a no-op for every strategy, and the oracle checks exactly that.
func NewCase(rng *rand.Rand, seed int64) Case {
	perm := rng.Perm(64)
	c := Case{Seed: seed, DocIDs: append([]int(nil), perm[:4+rng.Intn(8)]...)}
	sidPerm := rng.Perm(8)
	for _, s := range sidPerm[:1+rng.Intn(5)] {
		c.SIDs = append(c.SIDs, uint32(s+1))
	}
	wordPerm := rng.Perm(len(genWords))
	for _, w := range wordPerm[:1+rng.Intn(3)] {
		c.Terms = append(c.Terms, genWords[w])
	}
	c.K = []int{1, 2, 3, 10, 0}[rng.Intn(5)]
	return c
}

// Mismatch describes one strategy disagreeing with the exhaustive
// baseline on one store.
type Mismatch struct {
	Case     Case
	Store    string // "v2", "split", "segment", or a cluster grid cell
	Strategy string // "TA", "NRA", "Merge", or "Auto"
	Detail   string
	// Cluster marks a distributed-oracle failure (CheckCluster); Repro
	// then renders a CheckCluster regression instead of a Check one.
	Cluster bool
	// Universe marks a cross-universe failure (CheckUniverse): the JSON
	// collection and its canonical XML rendering disagreed.
	Universe bool
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("%s on %s store: %s (case %+v)", m.Strategy, m.Store, m.Detail, m.Case)
}

// Repro renders the mismatch as a paste-ready regression test pinned to
// the exact failing case.
func (m *Mismatch) Repro() string {
	c := m.Case
	var sb strings.Builder
	fmt.Fprintf(&sb, "// Regression: %s on %s store — %s\n", m.Strategy, m.Store, m.Detail)
	fmt.Fprintf(&sb, "// Paste into a _test.go file (package oracle_test) under internal/oracle.\n")
	fmt.Fprintf(&sb, "func TestOracleRegressionSeed%d(t *testing.T) {\n", c.Seed)
	fmt.Fprintf(&sb, "\tc := oracle.Case{\n")
	fmt.Fprintf(&sb, "\t\tSeed:   %d,\n", c.Seed)
	fmt.Fprintf(&sb, "\t\tDocIDs: %#v,\n", c.DocIDs)
	fmt.Fprintf(&sb, "\t\tSIDs:   %#v,\n", c.SIDs)
	fmt.Fprintf(&sb, "\t\tTerms:  %#v,\n", c.Terms)
	fmt.Fprintf(&sb, "\t\tK:      %d,\n", c.K)
	fmt.Fprintf(&sb, "\t}\n")
	if m.Cluster {
		sb.WriteString("\tm, err := oracle.CheckCluster(c)\n")
		sb.WriteString("\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
		sb.WriteString("\tif m != nil {\n\t\tt.Fatalf(\"cluster diverges from single engine: %s\", m)\n\t}\n}\n")
		return sb.String()
	}
	if m.Universe {
		sb.WriteString("\tm, err := oracle.CheckUniverse(c)\n")
		sb.WriteString("\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
		sb.WriteString("\tif m != nil {\n\t\tt.Fatalf(\"JSON and XML universes diverge: %s\", m)\n\t}\n}\n")
		return sb.String()
	}
	sb.WriteString("\tm, err := oracle.Check(c)\n")
	sb.WriteString("\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
	sb.WriteString("\tif m != nil {\n\t\tt.Fatalf(\"strategies disagree: %s\", m)\n\t}\n}\n")
	return sb.String()
}

// Check runs one differential case. A nil *Mismatch means every strategy
// agreed with the exhaustive baseline on every store; a non-nil error
// means the harness itself failed (build or retrieval error), which is a
// bug too but not a ranking divergence.
func Check(c Case) (*Mismatch, error) {
	return check(c, nil)
}

// perturbFunc lets harness tests corrupt one strategy's output before
// comparison, to prove the shrink/repro machinery catches real drift.
type perturbFunc func(store, strategy string, res []retrieval.Scored) []retrieval.Scored

func check(c Case, perturb perturbFunc) (*Mismatch, error) {
	if len(c.DocIDs) == 0 || len(c.SIDs) == 0 || len(c.Terms) == 0 {
		return nil, fmt.Errorf("oracle: degenerate case %+v", c)
	}
	type store struct {
		name string
		st   *index.Store
	}
	var stores []store
	for _, format := range storeFormats {
		st, closeSt, err := buildCaseStore(c, format)
		if err != nil {
			return nil, err
		}
		defer closeSt()
		stores = append(stores, store{format, st})
	}

	scBase, err := stores[0].st.NewScorer(c.Terms)
	if err != nil {
		return nil, err
	}
	base, _, err := retrieval.ExhaustiveTopKCtx(context.Background(), stores[0].st, c.SIDs, c.Terms, scBase, c.K)
	if err != nil {
		return nil, err
	}

	for _, s := range stores {
		sc, err := s.st.NewScorer(c.Terms)
		if err != nil {
			return nil, err
		}
		runs := []struct {
			name string
			run  func() ([]retrieval.Scored, error)
		}{
			{"TA", func() ([]retrieval.Scored, error) {
				r, _, err := retrieval.TACtx(context.Background(), s.st, c.SIDs, c.Terms, sc, c.K)
				return r, err
			}},
			{"NRA", func() ([]retrieval.Scored, error) {
				r, _, err := retrieval.NRACtx(context.Background(), s.st, c.SIDs, c.Terms, c.K)
				return r, err
			}},
			{"Merge", func() ([]retrieval.Scored, error) {
				r, _, err := retrieval.MergeCtx(context.Background(), s.st, c.SIDs, c.Terms, c.K)
				return r, err
			}},
			{"Auto", func() ([]retrieval.Scored, error) {
				return runAuto(s.st, c, sc)
			}},
		}
		for _, strat := range runs {
			got, err := strat.run()
			if err != nil {
				return nil, fmt.Errorf("oracle: %s on %s store: %w", strat.name, s.name, err)
			}
			if perturb != nil {
				got = perturb(s.name, strat.name, got)
			}
			if d := diffRankings(c.K, base, got); d != "" {
				return &Mismatch{Case: c, Store: s.name, Strategy: strat.name, Detail: d}, nil
			}
		}
	}
	return nil, nil
}

// caseFeatures derives the planner feature vector for the case on one
// store — the same catalog-backed statistics the engine's query path
// feeds the planner.
func caseFeatures(st *index.Store, c Case) (planner.Features, error) {
	f := planner.Features{NumSIDs: len(c.SIDs), NumTerms: len(c.Terms), K: c.K}
	if f.K < 0 {
		f.K = 0
	}
	var err error
	if f.RPLCovered, err = st.CoveredCached(index.KindRPL, c.Terms, c.SIDs); err != nil {
		return f, err
	}
	if f.ERPLCovered, err = st.CoveredCached(index.KindERPL, c.Terms, c.SIDs); err != nil {
		return f, err
	}
	for _, t := range c.Terms {
		cf, err := st.TermCFCached(t)
		if err != nil {
			return f, err
		}
		f.PostingsPositions += cf
		for _, sid := range c.SIDs {
			rs, err := st.ListStat(index.KindRPL, t, sid)
			if err != nil {
				return f, err
			}
			if rs.Built {
				f.RPLEntries += int64(rs.Entries)
				f.RPLBytes += rs.Bytes
				f.RPLBlocks += int64(rs.Blocks)
			}
			es, err := st.ListStat(index.KindERPL, t, sid)
			if err != nil {
				return f, err
			}
			if es.Built {
				f.ERPLEntries += int64(es.Entries)
				f.ERPLBytes += es.Bytes
				f.ERPLBlocks += int64(es.Blocks)
			}
		}
	}
	return f, nil
}

// runAuto is the planner-routed column: a fresh planner, calibrated with
// a single observation that makes the case's seed-preferred method the
// predicted-cheapest (when eligible), decides the method, and the oracle
// runs exactly that. The seed rotation walks all four routes across a
// sweep; ineligible preferences fall back to the planner's own ranking.
func runAuto(st *index.Store, c Case, sc *score.Scorer) ([]retrieval.Scored, error) {
	f, err := caseFeatures(st, c)
	if err != nil {
		return nil, err
	}
	pl := planner.New()
	pref := planner.Method(uint64(c.Seed) % uint64(planner.NumMethods))
	if planner.Eligible(pref, f) {
		pl.Observe(pref, f, 1)
	}
	d := pl.Plan(f)
	switch d.Method {
	case planner.TA:
		r, _, err := retrieval.TACtx(context.Background(), st, c.SIDs, c.Terms, sc, c.K)
		return r, err
	case planner.NRA:
		r, _, err := retrieval.NRACtx(context.Background(), st, c.SIDs, c.Terms, c.K)
		return r, err
	case planner.Merge:
		r, _, err := retrieval.MergeCtx(context.Background(), st, c.SIDs, c.Terms, c.K)
		return r, err
	default:
		r, _, err := retrieval.ExhaustiveTopKCtx(context.Background(), st, c.SIDs, c.Terms, sc, c.K)
		return r, err
	}
}

// storeFormats are the list stores every case is checked on; the first
// one's exhaustive ranking is the baseline.
var storeFormats = []string{"v2", "split", "segment"}

// splitRuns divides a clause's sids into the two Materialize runs of the
// "split" store: the first half of the sids plus one, then the rest. The
// runs share one sid, which the second run drops and rebuilds.
func splitRuns(sids []uint32) [2][]uint32 {
	h := len(sids) / 2
	return [2][]uint32{sids[:h+1], sids[h:]}
}

// buildCaseStore parses the case's collection into a fresh in-memory
// store and materializes its lists in the requested format: "v2" (one
// Materialize run), "split" (two runs over splitRuns' halves: one
// term's RPL blocks from both runs interleave in key space, and the
// shared sid's drop re-encodes the first run's surviving RPL blocks), or
// "segment" (v2 lists committed to and served from an in-memory segment
// generation instead of the pager trees).
func buildCaseStore(c Case, format string) (*index.Store, func(), error) {
	return buildStoreFrom(GenCollection(c.Seed, c.DocIDs), c, format)
}

// buildStoreFrom is buildCaseStore over an explicit collection; the
// cross-universe oracle feeds it the same case with JSON and XML
// renderings of one document set.
func buildStoreFrom(col *corpus.Collection, c Case, format string) (*index.Store, func(), error) {
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		return nil, nil, err
	}
	db := storage.OpenMemory()
	fail := func(err error) (*index.Store, func(), error) {
		db.Close()
		return nil, nil, err
	}
	st, err := index.Open(db)
	if err != nil {
		return fail(err)
	}
	if _, err := index.BuildBase(st, col, sum); err != nil {
		return fail(err)
	}
	sc, err := st.NewScorer(c.Terms)
	if err != nil {
		return fail(err)
	}
	switch format {
	case "v2":
		_, err = retrieval.Materialize(st, c.SIDs, c.Terms, sc, index.KindRPL, index.KindERPL)
	case "segment":
		if _, err = retrieval.Materialize(st, c.SIDs, c.Terms, sc, index.KindRPL, index.KindERPL); err == nil {
			// Attaching after the build publishes the lists as the first
			// generation; reads now come off the segment image.
			err = st.AttachSegments(segment.OpenMemory())
		}
	case "split":
		for _, sids := range splitRuns(c.SIDs) {
			if _, err = retrieval.Materialize(st, sids, c.Terms, sc, index.KindRPL, index.KindERPL); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("oracle: unknown store format %q", format)
	}
	if err != nil {
		return fail(err)
	}
	return st, func() { db.Close() }, nil
}

// CheckCrashRecovery runs one case through repeated segment-commit
// crashes: the store (fault-injected pager + file-backed segment in dir)
// is built and committed once, then each round stages a list rewrite and
// dies between the new segment's fsync and the manifest swap. Recovery —
// a pager snapshot reopened as a fresh process plus a fresh segment.Open
// over dir — must come back on the old generation with rankings
// byte-identical to the exhaustive baseline; a rebuilt or drifted store
// is reported as a Mismatch. dir must be an empty scratch directory.
func CheckCrashRecovery(c Case, rounds int, dir string) (*Mismatch, error) {
	if len(c.DocIDs) == 0 || len(c.SIDs) == 0 || len(c.Terms) == 0 {
		return nil, fmt.Errorf("oracle: degenerate case %+v", c)
	}
	col := GenCollection(c.Seed, c.DocIDs)
	sum, err := summary.Build(col, summary.Options{Kind: summary.KindIncoming})
	if err != nil {
		return nil, err
	}
	disk := faultinject.NewDisk(c.Seed)
	db, err := storage.NewDB(disk, nil)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	st, err := index.Open(db)
	if err != nil {
		return nil, err
	}
	if _, err := index.BuildBase(st, col, sum); err != nil {
		return nil, err
	}
	sc, err := st.NewScorer(c.Terms)
	if err != nil {
		return nil, err
	}
	if _, err := retrieval.Materialize(st, c.SIDs, c.Terms, sc, index.KindRPL, index.KindERPL); err != nil {
		return nil, err
	}
	base, _, err := retrieval.ExhaustiveTopKCtx(context.Background(), st, c.SIDs, c.Terms, sc, c.K)
	if err != nil {
		return nil, err
	}
	ss, err := segment.Open(dir)
	if err != nil {
		return nil, err
	}
	defer ss.Close()
	if err := st.AttachSegments(ss); err != nil {
		return nil, err
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	gen := ss.Generation()

	for round := 0; round < rounds; round++ {
		// Stage a rewrite (Materialize drops built lists first, so the
		// trees mutate and the epoch bumps), then die mid-commit.
		ss.CrashBeforeSwap = func() error {
			return fmt.Errorf("oracle: simulated crash before manifest swap")
		}
		if _, err := retrieval.Materialize(st, c.SIDs, c.Terms, sc, index.KindRPL, index.KindERPL); err != nil {
			return nil, err
		}
		if err := st.CommitLists(); err == nil {
			return nil, fmt.Errorf("oracle: round %d: commit survived the crash hook", round)
		}

		// Recover: the pager snapshot is the on-disk state the crashed
		// process left (no flush since the staged rewrite), the segment
		// directory is reopened as a new process would.
		db2, err := storage.OpenBackend(disk.Snapshot(), nil)
		if err != nil {
			return nil, fmt.Errorf("oracle: round %d reopen: %w", round, err)
		}
		m, err := checkRecovered(c, base, db2, dir, gen, round)
		db2.Close()
		if m != nil || err != nil {
			return m, err
		}
	}
	return nil, nil
}

// checkRecovered opens the index over a recovered pager db, re-attaches
// the segment directory and asserts the old generation serves rankings
// byte-identical to base.
func checkRecovered(c Case, base []retrieval.Scored, db *storage.DB, dir string, gen uint64, round int) (*Mismatch, error) {
	st, err := index.Open(db)
	if err != nil {
		return nil, err
	}
	ss, err := segment.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("oracle: round %d segment reopen: %w", round, err)
	}
	defer ss.Close()
	if err := st.AttachSegments(ss); err != nil {
		return nil, err
	}
	detail := func(d string) *Mismatch {
		return &Mismatch{Case: c, Store: "segment-crash", Strategy: fmt.Sprintf("round %d", round), Detail: d}
	}
	if g := ss.Generation(); g != gen {
		return detail(fmt.Sprintf("generation %d after crash, want old %d intact", g, gen)), nil
	}
	sc, err := st.NewScorer(c.Terms)
	if err != nil {
		return nil, err
	}
	ta, _, err := retrieval.TACtx(context.Background(), st, c.SIDs, c.Terms, sc, c.K)
	if err != nil {
		return nil, err
	}
	if d := diffRankings(c.K, base, ta); d != "" {
		return detail("TA after recovery: " + d), nil
	}
	mg, _, err := retrieval.MergeCtx(context.Background(), st, c.SIDs, c.Terms, c.K)
	if err != nil {
		return nil, err
	}
	if d := diffRankings(c.K, base, mg); d != "" {
		return detail("Merge after recovery: " + d), nil
	}
	if ss.RowsRead() == 0 && len(base) > 0 {
		return detail("recovered store served no rows from the segment"), nil
	}
	return nil, nil
}

// diffRankings reports the first divergence between two results of a
// run at k, or "" when they are identical in length, elements, and exact
// scores. A run at k <= 0 promises every answer in no particular order,
// so both sides are compared in SortScored order: as multisets.
func diffRankings(k int, want, got []retrieval.Scored) string {
	if k <= 0 {
		want, got = slices.Clone(want), slices.Clone(got)
		retrieval.SortScored(want)
		retrieval.SortScored(got)
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Elem != got[i].Elem || want[i].Score != got[i].Score {
			return fmt.Sprintf("rank %d: %v score %v, want %v score %v",
				i, got[i].Elem, got[i].Score, want[i].Elem, want[i].Score)
		}
	}
	return ""
}

// Shrink greedily minimizes a failing case: it repeatedly tries removing
// one document, term, or sid and keeps any removal under which failing
// still reports true, looping to a fixpoint. The result is 1-minimal —
// removing any single remaining component makes the failure vanish.
// failing must be deterministic (Check is, for a fixed Case).
func Shrink(c Case, failing func(Case) bool) Case {
	for changed := true; changed; {
		changed = false
		c, changed = shrinkDocs(c, failing, changed)
		c, changed = shrinkTerms(c, failing, changed)
		c, changed = shrinkSIDs(c, failing, changed)
	}
	return c
}

func shrinkDocs(c Case, failing func(Case) bool, changed bool) (Case, bool) {
	for i := 0; i < len(c.DocIDs) && len(c.DocIDs) > 1; {
		cand := c
		cand.DocIDs = without(c.DocIDs, i)
		if failing(cand) {
			c = cand
			changed = true
		} else {
			i++
		}
	}
	return c, changed
}

func shrinkTerms(c Case, failing func(Case) bool, changed bool) (Case, bool) {
	for i := 0; i < len(c.Terms) && len(c.Terms) > 1; {
		cand := c
		cand.Terms = without(c.Terms, i)
		if failing(cand) {
			c = cand
			changed = true
		} else {
			i++
		}
	}
	return c, changed
}

func shrinkSIDs(c Case, failing func(Case) bool, changed bool) (Case, bool) {
	for i := 0; i < len(c.SIDs) && len(c.SIDs) > 1; {
		cand := c
		cand.SIDs = without(c.SIDs, i)
		if failing(cand) {
			c = cand
			changed = true
		} else {
			i++
		}
	}
	return c, changed
}

// without returns s minus the element at i, as a fresh slice.
func without[T any](s []T, i int) []T {
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}
