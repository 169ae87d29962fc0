package trex

import (
	"context"
	"fmt"
	"strings"

	"trex/internal/index"
	"trex/internal/planner"
	"trex/internal/telemetry"
	"trex/internal/translate"
)

// Explanation describes how the engine would evaluate a query, without
// running it: the translation, which redundant lists are materialized,
// and the method auto-selection would pick per k.
type Explanation struct {
	Query string
	// NumSIDs / NumTerms are the translation sizes (Table 1's columns).
	NumSIDs  int
	NumTerms int
	// Clauses, one line per about().
	Clauses []string
	// TargetPaths are the answer extents' path expressions.
	TargetPaths []string
	// RPLCovered / ERPLCovered report redundant-list availability.
	RPLCovered  bool
	ERPLCovered bool
	// MethodAtSmallK / MethodAtLargeK is what MethodAuto would run at
	// k = 1 and k = 1,000,000; they agree for queries whose retrieval
	// phase produces every match whatever k is.
	MethodAtSmallK Method
	MethodAtLargeK Method
	// ListVolume is the total number of materialized RPL entries the
	// query's (term, sid) lists hold (TA's maximum read depth).
	ListVolume int
	// ListBytes is the on-disk footprint (key+value bytes) of those RPL
	// lists plus the clause's ERPL lists — exact for block-encoded lists,
	// since the catalog records real encoded sizes.
	ListBytes int64
	// PlanFeatures is the feature vector the query planner derives for
	// this query asked at k = DefaultK (its K is the k retrieval would run
	// at: 0, all answers, for queries with support clauses or negated
	// terms), and Plan the resulting decision with
	// per-candidate cost estimates. Both are nil when feature
	// extraction fails. Computing them reads only the engine's stat
	// cache — no cursors are opened and no pages are touched.
	PlanFeatures *planner.Features
	Plan         *planner.Decision
	// Trace breaks the analysis into timed spans with I/O attribution
	// (nil when telemetry is disabled).
	Trace *telemetry.Trace
}

// Explain analyzes a query without evaluating it.
func (e *Engine) Explain(src string) (*Explanation, error) {
	return e.ExplainCtx(context.Background(), src)
}

// ExplainCtx is Explain with a caller context. Analysis is cheap (no
// retrieval runs), so the context is only consulted between phases: a
// cancellation or expired deadline aborts with the context's error
// rather than producing a partial explanation.
func (e *Engine) ExplainCtx(ctx context.Context, src string) (*Explanation, error) {
	e.beginRead()
	defer e.endRead()

	var trc *telemetry.Trace
	var ioPrev index.IOStat
	span := -1
	if e.met != nil {
		trc = telemetry.NewTrace(src, 0)
		ioPrev = e.store.IOStats()
		span = trc.StartSpan("translate")
	}
	tr, hit, err := e.translateModeHit(src, translate.ModeVague)
	if trc != nil {
		sp, now := e.endSpanIO(trc, span, ioPrev)
		sp.Cached = hit
		ioPrev = now
		span = trc.StartSpan("analyze")
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sids, terms := flatten(tr)
	ex := &Explanation{
		Query:    src,
		NumSIDs:  tr.NumSIDs(),
		NumTerms: tr.NumTerms(),
	}
	for i := range tr.Clauses {
		c := &tr.Clauses[i]
		role := "support"
		if c.IsTarget {
			role = "target"
		}
		ex.Clauses = append(ex.Clauses, fmt.Sprintf(
			"about #%d (%s): pattern //%s -> %d sids, terms %v",
			i+1, role, strings.Join(c.Pattern, "//"), len(c.SIDs),
			append(c.PositiveTerms(), prefixedAll("-", c.NegativeTerms())...)))
	}
	for _, sid := range tr.TargetSIDs {
		if n := e.sum.NodeBySID(int(sid)); n != nil {
			ex.TargetPaths = append(ex.TargetPaths, n.XPathExpr())
		}
	}
	if ex.RPLCovered, err = e.store.CoveredCached(index.KindRPL, terms, sids); err != nil {
		return nil, err
	}
	if ex.ERPLCovered, err = e.store.CoveredCached(index.KindERPL, terms, sids); err != nil {
		return nil, err
	}
	// Plan as Query would: on the stopword-filtered terms, at the k its
	// retrieval phase would run at.
	_, planTerms, negs, err := e.evalTerms(tr)
	if err != nil {
		return nil, err
	}
	ex.MethodAtSmallK = e.methodAt(sids, planTerms, retrievalK(tr, negs, 1))
	ex.MethodAtLargeK = e.methodAt(sids, planTerms, retrievalK(tr, negs, 1_000_000))
	if f, ferr := planFeatures(e.store, sids, planTerms, retrievalK(tr, negs, DefaultK)); ferr == nil {
		d := e.pln.model.Plan(f)
		ex.PlanFeatures = &f
		ex.Plan = &d
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, kind := range []index.ListKind{index.KindRPL, index.KindERPL} {
		covered := ex.RPLCovered
		if kind == index.KindERPL {
			covered = ex.ERPLCovered
		}
		if !covered {
			continue
		}
		for _, t := range terms {
			for _, sid := range sids {
				ls, err := e.store.ListStat(kind, t, sid)
				if err != nil {
					return nil, err
				}
				if kind == index.KindRPL {
					ex.ListVolume += ls.Entries
				}
				ex.ListBytes += ls.Bytes
			}
		}
	}
	if trc != nil {
		e.endSpanIO(trc, span, ioPrev)
		trc.Finish()
		ex.Trace = trc
	}
	return ex, nil
}

// methodAt resolves what MethodAuto would run at k: the planner's
// decision (cold-starting on the static rule while uncalibrated), or
// ERA when feature extraction fails, as in queryCore.
func (e *Engine) methodAt(sids []uint32, terms []string, k int) Method {
	f, err := planFeatures(e.store, sids, terms, k)
	if err != nil {
		return MethodERA
	}
	return toEngineMethod(e.pln.model.Plan(f).Method)
}

func prefixedAll(prefix string, words []string) []string {
	out := make([]string, len(words))
	for i, w := range words {
		out[i] = prefix + w
	}
	return out
}

// String renders a human-readable plan.
func (ex *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", ex.Query)
	fmt.Fprintf(&sb, "translation: %d sids, %d terms\n", ex.NumSIDs, ex.NumTerms)
	for _, c := range ex.Clauses {
		fmt.Fprintf(&sb, "  %s\n", c)
	}
	fmt.Fprintf(&sb, "targets: %s\n", strings.Join(ex.TargetPaths, ", "))
	fmt.Fprintf(&sb, "lists: RPL covered=%v ERPL covered=%v volume=%d entries, %d bytes on disk\n",
		ex.RPLCovered, ex.ERPLCovered, ex.ListVolume, ex.ListBytes)
	fmt.Fprintf(&sb, "auto method: k small -> %s, k large -> %s\n",
		ex.MethodAtSmallK, ex.MethodAtLargeK)
	if d := ex.Plan; d != nil {
		mode := "calibrated"
		if d.ColdStart {
			mode = "cold-start"
		}
		fmt.Fprintf(&sb, "planner (%s, k=%d): %s, predicted cost %.0f", mode, ex.PlanFeatures.K, d.Method, d.Cost)
		if d.RunnerUp >= 0 {
			fmt.Fprintf(&sb, "; runner-up %s, cost %.0f", d.RunnerUp, d.RunnerUpCost)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
