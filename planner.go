package trex

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"trex/internal/index"
	"trex/internal/planner"
	"trex/internal/retrieval"
	"trex/internal/score"
	"trex/internal/telemetry"
)

// PlannerOptions configures the online query planner: the cost model
// that resolves MethodAuto to a concrete retrieval strategy per query,
// calibrated continuously from observed runs. A nil pointer in Options
// uses the defaults.
type PlannerOptions struct {
	// ShadowFraction is the fraction of auto-planned queries that also
	// run the predicted runner-up in the background ("shadow sampling"),
	// under its own I/O guard window, to keep the model honest: the
	// shadow's measured cost is fed to the model, and when it beats the
	// chosen method's the misprediction and its regret are recorded.
	// 0 uses DefaultShadowFraction; negative disables shadowing; values
	// above 1 are clamped to 1 (every auto-planned query shadows).
	ShadowFraction float64
}

// DefaultShadowFraction is the shadow-sampling rate when none is given:
// 1 in 50 auto-planned queries re-runs the runner-up.
const DefaultShadowFraction = 0.02

// plannerState is the engine's planner wiring: the shared model, the
// shadow sampler, and the counters behind PlannerStatus and the
// trex_planner_* metrics. Counters are planner-owned atomics (not
// telemetry instruments) so status works with telemetry disabled; the
// metrics registry reads them through func metrics.
type plannerState struct {
	model          *planner.Planner
	shadowFraction float64

	// shadowSeq drives the deterministic accumulator sampler: query n
	// shadows iff floor(n*f) > floor((n-1)*f), which spreads samples
	// evenly with no RNG state.
	shadowSeq atomic.Uint64

	decisions      [planner.NumMethods]atomic.Uint64
	fallbacks      atomic.Uint64
	shadowSamples  atomic.Uint64
	shadowErrors   atomic.Uint64
	mispredictions atomic.Uint64

	// regret is the misprediction regret histogram ((chosen - shadow) /
	// shadow measured cost); nil when telemetry is disabled.
	regret *telemetry.Histogram
}

// initPlanner wires the planner per opts. Called once from build/Open
// after initTelemetry, before the engine is shared.
func (e *Engine) initPlanner(opts *PlannerOptions) {
	var o PlannerOptions
	if opts != nil {
		o = *opts
	}
	frac := o.ShadowFraction
	switch {
	case frac == 0:
		frac = DefaultShadowFraction
	case frac < 0:
		frac = 0
	case frac > 1:
		frac = 1
	}
	p := &plannerState{model: planner.New(), shadowFraction: frac}
	if m := e.met; m != nil {
		registerPlannerMetrics(m.reg, p)
		p.regret = m.reg.Histogram("trex_planner_regret",
			"Relative regret of mispredicted plans: (chosen - runner-up) / runner-up measured cost, recorded by shadow samples that beat the chosen method.", nil, nil)
	}
	e.pln = p
}

// registerPlannerMetrics exposes the planner's counters as func metrics,
// mirroring registerFrontdoorMetrics: the state owns the atomics, the
// scrape path reads them.
func registerPlannerMetrics(reg *telemetry.Registry, p *plannerState) {
	for m := planner.Method(0); m < planner.NumMethods; m++ {
		mm := m
		reg.CounterFunc("trex_planner_decisions_total",
			"MethodAuto resolutions by predicted-cheapest method.",
			telemetry.Labels{"method": mm.String()},
			func() uint64 { return p.decisions[mm].Load() })
	}
	reg.CounterFunc("trex_planner_fallbacks_total",
		"MethodAuto resolutions that fell back to ERA (feature extraction failed).", nil,
		p.fallbacks.Load)
	reg.CounterFunc("trex_planner_shadow_samples_total",
		"Auto-planned queries that additionally ran the predicted runner-up.", nil,
		p.shadowSamples.Load)
	reg.CounterFunc("trex_planner_shadow_errors_total",
		"Shadow runs that failed (their cost was not observed).", nil,
		p.shadowErrors.Load)
	reg.CounterFunc("trex_planner_mispredictions_total",
		"Shadow samples whose runner-up ran cheaper than the chosen method.", nil,
		p.mispredictions.Load)
	reg.CounterFunc("trex_planner_observations_total",
		"Measured runs fed into the cost model.", nil,
		p.model.Observations)
	reg.GaugeFunc("trex_planner_calibrated_buckets",
		"Feature buckets with at least one observed sample.", nil,
		func() float64 { return float64(p.model.CalibratedBuckets()) })
	reg.GaugeFunc("trex_planner_staleness_seconds",
		"Seconds since the cost model last absorbed an observation (-1 = never).", nil,
		func() float64 {
			if p.model.LastObservation().IsZero() {
				return -1
			}
			return p.model.Staleness(time.Now()).Seconds()
		})
}

// toEngineMethod maps a planner verdict to the engine's Method enum.
func toEngineMethod(m planner.Method) Method {
	switch m {
	case planner.ERA:
		return MethodERA
	case planner.TA:
		return MethodTA
	case planner.NRA:
		return MethodNRA
	case planner.Merge:
		return MethodMerge
	default:
		return MethodERA
	}
}

// toPlannerMethod maps an executed engine method to the planner enum;
// ok is false for MethodAuto, which never executes as itself.
func toPlannerMethod(m Method) (planner.Method, bool) {
	switch m {
	case MethodERA:
		return planner.ERA, true
	case MethodTA:
		return planner.TA, true
	case MethodNRA:
		return planner.NRA, true
	case MethodMerge:
		return planner.Merge, true
	default:
		return 0, false
	}
}

// planFeatures builds the query's plan-time feature vector from the
// translated shape and the stat cache — exact per-list entry/byte/block
// counts and term collection frequencies, all answered from memoized
// catalog lookups, so steady-state planning reads zero storage pages.
// Callers hold the engine read lock.
func (e *Engine) planFeatures(sids []uint32, terms []string, kEval int) (planner.Features, error) {
	f := planner.Features{
		NumSIDs:     len(sids),
		NumTerms:    len(terms),
		K:           kEval,
		RPLCovered:  true,
		ERPLCovered: true,
	}
	for _, t := range terms {
		cf, err := e.store.TermCFCached(t)
		if err != nil {
			return f, err
		}
		f.PostingsPositions += cf
		for _, sid := range sids {
			st, err := e.store.ListStat(index.KindRPL, t, sid)
			if err != nil {
				return f, err
			}
			if st.Built {
				f.RPLEntries += int64(st.Entries)
				f.RPLBytes += st.Bytes
				f.RPLBlocks += int64(st.Blocks)
			} else {
				f.RPLCovered = false
			}
			st, err = e.store.ListStat(index.KindERPL, t, sid)
			if err != nil {
				return f, err
			}
			if st.Built {
				f.ERPLEntries += int64(st.Entries)
				f.ERPLBytes += st.Bytes
				f.ERPLBlocks += int64(st.Blocks)
			} else {
				f.ERPLCovered = false
			}
		}
	}
	return f, nil
}

// observeRun feeds one successful, fully measured retrieval into the
// cost model. Approximate (deadline-stopped) runs are skipped — their
// cost covers an unknown fraction of the work.
func (e *Engine) observeRun(m Method, f planner.Features, st *retrieval.Stats) {
	if st == nil || st.Approximate {
		return
	}
	pm, ok := toPlannerMethod(m)
	if !ok {
		return
	}
	e.pln.model.Observe(pm, f, st.CostProxy())
}

// shouldShadow implements the deterministic sampler.
func (p *plannerState) shouldShadow() bool {
	if p.shadowFraction <= 0 {
		return false
	}
	n := p.shadowSeq.Add(1)
	f := p.shadowFraction
	return math.Floor(float64(n)*f) > math.Floor(float64(n-1)*f)
}

// launchShadow runs the planner's runner-up in the background for one
// sampled auto-planned query: registered with the engine's inflight
// group while the caller still holds the read lock (so writers drain it
// before mutating storage), measuring under its own guard window (so
// its I/O taints any exactness window it overlaps instead of corrupting
// one), and detached from the caller's context. The shadow's measured
// cost calibrates the model; when it beats the chosen method's cost,
// the misprediction and its relative regret are recorded.
func (e *Engine) launchShadow(runnerUp Method, sids []uint32, terms []string, sc *score.Scorer, kEval int, f planner.Features, chosenCost float64) {
	p := e.pln
	p.shadowSamples.Add(1)
	e.inflight.Add(1)
	go func() {
		defer e.inflight.Done()
		if m := e.met; m != nil {
			w := m.guard.Enter()
			defer w.Exit()
		}
		_, st, err := e.retrieve(context.Background(), runnerUp, sids, terms, sc, kEval)
		if err != nil || st == nil {
			p.shadowErrors.Add(1)
			return
		}
		cost := st.CostProxy()
		if pm, ok := toPlannerMethod(runnerUp); ok {
			p.model.Observe(pm, f, cost)
		}
		if cost < chosenCost && cost > 0 {
			p.mispredictions.Add(1)
			if p.regret != nil {
				p.regret.Observe((chosenCost - cost) / cost)
			}
		}
	}()
}

// DrainShadows blocks until every in-flight shadow run has finished —
// deterministic accounting for tests and benchmarks.
func (e *Engine) DrainShadows() {
	e.inflight.Wait()
}

// PlannerStatus is the snapshot behind GET /planner.
type PlannerStatus struct {
	ShadowFraction float64 `json:"shadowFraction"`
	// Decisions counts MethodAuto resolutions by chosen method;
	// Fallbacks counts resolutions that ran ERA because feature
	// extraction failed.
	Decisions map[string]uint64 `json:"decisions,omitempty"`
	Fallbacks uint64            `json:"fallbacks"`
	// ShadowSamples/ShadowErrors/Mispredictions describe the shadow
	// sampler: runs launched, runs failed, runs that beat the chosen
	// method.
	ShadowSamples  uint64 `json:"shadowSamples"`
	ShadowErrors   uint64 `json:"shadowErrors"`
	Mispredictions uint64 `json:"mispredictions"`
	// Observations/CalibratedBuckets/StalenessSeconds describe the cost
	// model: measured runs absorbed, feature buckets with samples, and
	// seconds since the last observation (-1 when it never observed).
	Observations      uint64  `json:"observations"`
	CalibratedBuckets int     `json:"calibratedBuckets"`
	StalenessSeconds  float64 `json:"stalenessSeconds"`
}

// PlannerStatus reports the planner's live state.
func (e *Engine) PlannerStatus() PlannerStatus {
	p := e.pln
	st := PlannerStatus{
		ShadowFraction:    p.shadowFraction,
		Decisions:         make(map[string]uint64, planner.NumMethods),
		Fallbacks:         p.fallbacks.Load(),
		ShadowSamples:     p.shadowSamples.Load(),
		ShadowErrors:      p.shadowErrors.Load(),
		Mispredictions:    p.mispredictions.Load(),
		Observations:      p.model.Observations(),
		CalibratedBuckets: p.model.CalibratedBuckets(),
		StalenessSeconds:  -1,
	}
	for m := planner.Method(0); m < planner.NumMethods; m++ {
		st.Decisions[m.String()] = p.decisions[m].Load()
	}
	if !p.model.LastObservation().IsZero() {
		st.StalenessSeconds = p.model.Staleness(time.Now()).Seconds()
	}
	return st
}

// PlannerModel exposes the underlying cost model; the advisor feeds
// measurement runs through it and asks it how a workload query would be
// routed under hypothetical coverage.
func (e *Engine) PlannerModel() *planner.Planner {
	return e.pln.model
}
