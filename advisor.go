package trex

import (
	"context"
	"fmt"
	"sort"
	"time"

	"trex/internal/index"
	"trex/internal/planner"
	"trex/internal/retrieval"
	"trex/internal/selfmanage"
	"trex/internal/translate"
)

// DefaultK is the k assumed when a top-k request does not specify one:
// workload entries with K <= 0 handed to SelfManage, queries issued with
// k <= 0 ("all answers") entering the autopilot's workload tracker, and
// the web API's default page size all share this constant, so offline
// plans and online snapshots describe the same workload.
const DefaultK = 10

// WorkloadQuery is one entry of a self-management workload
// (Definition 4.1 in the paper): a NEXI query with its frequency and the
// k its users typically ask for (DefaultK when K <= 0).
type WorkloadQuery struct {
	NEXI string
	Freq float64
	K    int
}

// Solver selects the index-selection algorithm.
type Solver int

const (
	// SolverGreedy is the paper's 2-approximation (Section 4.2).
	SolverGreedy Solver = iota
	// SolverLP is the paper's boolean linear program (Section 4.1),
	// solved exactly; suitable for small workloads.
	SolverLP
	// SolverOptimal exhaustively searches assignments honoring list
	// sharing; only for very small workloads.
	SolverOptimal
)

func (s Solver) String() string {
	switch s {
	case SolverLP:
		return "lp"
	case SolverOptimal:
		return "optimal"
	default:
		return "greedy"
	}
}

// AdvisorReport describes a completed self-management run.
type AdvisorReport struct {
	// Workload holds the measured per-query costs handed to the solver.
	Workload *selfmanage.Workload
	// Plan is the solver's decision.
	Plan *selfmanage.Plan
	// DiskBudget is the budget the plan respected.
	DiskBudget int64
	// KeptLists and DroppedLists are the physical list keys retained and
	// reclaimed.
	KeptLists    []string
	DroppedLists []string
	// DroppedEntries counts entries deleted during reclamation.
	DroppedEntries int
	// SkippedQueries are workload entries dropped before planning
	// because they no longer translate (only with skipUntranslatable,
	// i.e. autopilot runs — tracked queries can go stale when the
	// summary changes).
	SkippedQueries []string
	// Routed records, per workload query, the method the engine's query
	// planner predicts under RPL-only and ERPL-only coverage — the
	// methods whose measured costs entered the solver's saving terms.
	Routed map[string]selfmanage.Routing
}

// listKey is the physical list identity used in the solver's sharing
// model and in reports. The sid (fixed-format decimal) comes before the
// term and the term is the final field, so a term containing '/' — or
// any other byte — can never make two distinct (kind, term, sid) triples
// collide: the first two '/'-separated fields fully determine where the
// term begins.
func listKey(kind index.ListKind, term string, sid uint32) string {
	return fmt.Sprintf("%c/%d/%s", byte(kind), sid, term)
}

// selfManageConfig tunes the internal self-management cycle beyond the
// public one-shot API.
type selfManageConfig struct {
	// dropUnreferenced also reclaims materialized lists the workload does
	// not reference. The autopilot sets it: its plan owns the whole list
	// set, so stale lists from earlier workloads must not leak disk
	// budget. The offline API keeps the paper's behavior (untouched).
	dropUnreferenced bool
	// skipUntranslatable drops workload entries whose NEXI no longer
	// parses or translates instead of failing the run.
	skipUntranslatable bool
	// pause rate-limits maintenance: it is slept after each workload
	// query's build and measurement, with no engine lock held, so
	// foreground queries keep the CPU between steps.
	pause time.Duration
}

// SelfManage measures the workload's queries under all three strategies,
// chooses which redundant lists to keep under the disk budget using the
// selected solver, and writes that plan — the full self-management cycle
// of Section 4.
//
// Measurement works the way the paper prescribes: the lists each query
// would need are materialized (via ERA), the three strategies are run, and
// "the actual time savings and disk space ... measured experimentally and
// assigned in the formulas". Costs use the deterministic Stats.CostProxy
// so plans are reproducible. The candidate lists are built into an
// in-memory index.ListDraft and measured there; only the lists the plan
// keeps are written to the store, and lists the plan does not keep are
// dropped, including previously existing lists the workload references.
// Lists never referenced by the workload are left untouched.
//
// SelfManage is a maintenance operation: builds and measurements run
// under the engine read lock, so queries keep flowing (and see the lists
// as they were) until one write-locked step applies the plan. It is
// exclusive with other maintenance operations. A run that fails before
// the plan is applied — an untranslatable query, a cancelled context, a
// solver error — leaves the store untouched.
func (e *Engine) SelfManage(queries []WorkloadQuery, disk int64, solver Solver) (*AdvisorReport, error) {
	return e.selfManage(context.Background(), queries, disk, solver, selfManageConfig{})
}

func (e *Engine) selfManage(ctx context.Context, queries []WorkloadQuery, disk int64, solver Solver, cfg selfManageConfig) (*AdvisorReport, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("trex: empty workload")
	}
	e.maintMu.Lock()
	defer e.maintMu.Unlock()

	report := &AdvisorReport{DiskBudget: disk, Routed: make(map[string]selfmanage.Routing)}
	w := &selfmanage.Workload{}
	lists := make(map[string]index.ListID)
	draft := index.NewListDraft(e.store)
	for _, wq := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec, err := e.measureWorkloadQuery(ctx, draft, wq, lists, report.Routed)
		if err != nil {
			if cfg.skipUntranslatable && spec == nil {
				report.SkippedQueries = append(report.SkippedQueries, wq.NEXI)
				continue
			}
			return nil, err
		}
		w.Queries = append(w.Queries, *spec)
		if err := maintSleep(ctx, cfg.pause); err != nil {
			return nil, err
		}
	}
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("trex: no usable workload queries (%d skipped)", len(report.SkippedQueries))
	}
	w.Normalize()

	var plan *selfmanage.Plan
	var err error
	switch solver {
	case SolverLP:
		plan, err = selfmanage.LP(w, disk)
	case SolverOptimal:
		plan, err = selfmanage.Optimal(w, disk)
	default:
		plan, err = selfmanage.Greedy(w, disk)
	}
	if err != nil {
		return nil, err
	}
	report.Workload = w
	report.Plan = plan

	keep := make(map[string]bool, len(plan.Lists))
	for _, k := range plan.Lists {
		keep[k] = true
	}
	for key := range lists {
		if keep[key] {
			report.KeptLists = append(report.KeptLists, key)
		} else {
			report.DroppedLists = append(report.DroppedLists, key)
		}
	}
	if cfg.dropUnreferenced {
		extra, err := e.unreferencedLists(keep, lists)
		if err != nil {
			return nil, err
		}
		for key, id := range extra {
			lists[key] = id
			report.DroppedLists = append(report.DroppedLists, key)
		}
	}
	sort.Strings(report.KeptLists)
	sort.Strings(report.DroppedLists)
	drops := make([]index.ListID, len(report.DroppedLists))
	for i, key := range report.DroppedLists {
		drops[i] = lists[key]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.beginWrite()
	report.DroppedEntries, err = draft.Apply(drops)
	e.endWrite()
	if err != nil {
		return nil, fmt.Errorf("trex: self-manage (apply phase): %w", err)
	}
	if err := e.store.CommitLists(); err != nil {
		return nil, fmt.Errorf("trex: self-manage (segment commit phase, plan applied in memory): %w", err)
	}
	if err := e.db.Flush(); err != nil {
		return nil, fmt.Errorf("trex: self-manage (commit phase, plan applied in memory): %w", err)
	}
	return report, nil
}

// measureWorkloadQuery builds the query's candidate lists into the draft
// (unless the draft's view already covers them) and measures the
// strategies through the view, all under the engine read lock: the build
// reads only base tables and the draft is the re-plan's own, so queries
// keep flowing and see nothing of it. A (nil, err) return means the query
// failed to translate; (non-nil spec, err) is an internal error.
//
// NRA is measured alongside the paper's three strategies, every
// measured cost calibrates the planner's model, and the solver's saving
// terms follow the planner's routing: the spec's "TA time" becomes the
// measured cost of whatever method the planner would run under RPL-only
// coverage (TA, NRA, or ERA — the latter zeroing the saving, because an
// RPL the planner would not route to is worthless), and likewise for
// "Merge time" under ERPL-only coverage.
// The routing per query is recorded in routed.
func (e *Engine) measureWorkloadQuery(ctx context.Context, draft *index.ListDraft, wq WorkloadQuery, lists map[string]index.ListID, routed map[string]selfmanage.Routing) (*selfmanage.QuerySpec, error) {
	e.beginRead()
	defer e.endRead()
	tr, err := e.translateMode(wq.NEXI, translate.ModeVague)
	if err != nil {
		return nil, fmt.Errorf("trex: workload query %q: %w", wq.NEXI, err)
	}
	sids, terms := flatten(tr)
	st := draft.View()
	// eraStats is the build's own ERA pass when the lists are built here:
	// ExhaustiveTopKCtx would sweep the same base tables and count the same
	// positions, elements, list reads and answers, which is all CostProxy
	// reads.
	var eraStats *retrieval.Stats
	sc, err := st.NewScorer(terms)
	if err != nil {
		return &selfmanage.QuerySpec{}, err
	}
	// Steady-state autopilot runs re-measure a workload whose lists are
	// already materialized; skip the ERA rebuild then.
	rpl, err := st.Covered(index.KindRPL, terms, sids)
	if err != nil {
		return &selfmanage.QuerySpec{}, err
	}
	erpl, err := st.Covered(index.KindERPL, terms, sids)
	if err != nil {
		return &selfmanage.QuerySpec{}, err
	}
	if !(rpl && erpl) {
		b, ms, err := retrieval.BuildLists(st, sids, terms, sc, index.KindRPL, index.KindERPL)
		if err != nil {
			return &selfmanage.QuerySpec{}, err
		}
		if err := draft.Add(b); err != nil {
			return &selfmanage.QuerySpec{}, err
		}
		eraStats = ms.ERA
	}

	k := wq.K
	if k <= 0 {
		k = DefaultK
	}
	if eraStats == nil {
		if _, eraStats, err = retrieval.ExhaustiveTopKCtx(ctx, st, sids, terms, sc, k); err != nil {
			return &selfmanage.QuerySpec{}, err
		}
	}
	_, taStats, err := retrieval.TACtx(ctx, st, sids, terms, sc, k)
	if err != nil {
		return &selfmanage.QuerySpec{}, err
	}
	_, mergeStats, err := retrieval.MergeCtx(ctx, st, sids, terms, k)
	if err != nil {
		return &selfmanage.QuerySpec{}, err
	}

	_, nraStats, err := retrieval.NRACtx(ctx, st, sids, terms, k)
	if err != nil {
		return &selfmanage.QuerySpec{}, err
	}
	feats, err := planFeatures(st, sids, terms, k)
	if err != nil {
		return &selfmanage.QuerySpec{}, err
	}
	costs := [planner.NumMethods]float64{
		planner.ERA:   eraStats.CostProxy(),
		planner.TA:    taStats.CostProxy(),
		planner.NRA:   nraStats.CostProxy(),
		planner.Merge: mergeStats.CostProxy(),
	}
	// Measurement runs are free calibration: all four methods just ran
	// the same query under exact counters.
	model := e.pln.model
	for m := planner.Method(0); m < planner.NumMethods; m++ {
		model.Observe(m, feats, costs[m])
	}
	rplOnly := feats
	rplOnly.RPLCovered, rplOnly.ERPLCovered = true, false
	erplOnly := feats
	erplOnly.RPLCovered, erplOnly.ERPLCovered = false, true
	mRPL := model.Plan(rplOnly).Method
	mERPL := model.Plan(erplOnly).Method
	routed[wq.NEXI] = selfmanage.Routing{RPLOnly: mRPL.String(), ERPLOnly: mERPL.String()}
	spec := &selfmanage.QuerySpec{
		ID:        wq.NEXI,
		Freq:      wq.Freq,
		TimeERA:   costs[planner.ERA],
		TimeTA:    costs[mRPL],
		TimeMerge: costs[mERPL],
	}
	for _, term := range terms {
		for _, sid := range sids {
			for _, kind := range []index.ListKind{index.KindRPL, index.KindERPL} {
				_, bytes, err := st.BuiltSize(kind, term, sid)
				if err != nil {
					return &selfmanage.QuerySpec{}, err
				}
				key := listKey(kind, term, sid)
				lists[key] = index.ListID{Kind: kind, Term: term, SID: sid}
				ref := selfmanage.ListRef{Key: key, Bytes: bytes}
				if kind == index.KindRPL {
					spec.TALists = append(spec.TALists, ref)
				} else {
					spec.MergeLists = append(spec.MergeLists, ref)
				}
			}
		}
	}
	return spec, nil
}

// unreferencedLists returns every materialized list that neither the
// plan keeps nor the measured workload references (those are in lists
// already and handled by the normal drop path).
func (e *Engine) unreferencedLists(keep map[string]bool, lists map[string]index.ListID) (map[string]index.ListID, error) {
	e.beginRead()
	entries, err := e.store.CatalogEntries()
	e.endRead()
	if err != nil {
		return nil, err
	}
	extra := make(map[string]index.ListID)
	for _, ce := range entries {
		key := listKey(ce.Kind, ce.Term, ce.SID)
		if keep[key] {
			continue
		}
		if _, known := lists[key]; known {
			continue
		}
		extra[key] = index.ListID{Kind: ce.Kind, Term: ce.Term, SID: ce.SID}
	}
	return extra, nil
}

// maintSleep pauses between maintenance steps, honoring cancellation.
func maintSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
