package trex

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"trex/internal/index"
	"trex/internal/nexi"
	"trex/internal/planner"
	"trex/internal/retrieval"
	"trex/internal/score"
	"trex/internal/telemetry"
	"trex/internal/translate"
)

// Method selects a retrieval strategy.
type Method int

const (
	// MethodAuto lets the engine pick the strategy: the online planner's
	// continuously calibrated cost model over the query's feature vector,
	// cold-starting on a static rule (list coverage plus a fixed k
	// threshold) until it has samples.
	MethodAuto Method = iota
	// MethodERA forces the exhaustive algorithm (always available).
	MethodERA
	// MethodTA forces the threshold algorithm (requires RPL coverage for
	// meaningful results).
	MethodTA
	// MethodMerge forces the Merge algorithm (requires ERPL coverage).
	MethodMerge
	// MethodNRA is the sorted-access-only threshold algorithm (the
	// TopX-style variant the paper's TA implementation follows): no
	// random accesses, candidate score bounds instead. Requires RPL
	// coverage.
	MethodNRA
)

func (m Method) String() string {
	switch m {
	case MethodERA:
		return "era"
	case MethodTA:
		return "ta"
	case MethodMerge:
		return "merge"
	case MethodNRA:
		return "nra"
	default:
		return "auto"
	}
}

// ParseMethod is the inverse of Method.String; "" is MethodAuto.
func ParseMethod(s string) (Method, error) {
	if s == "" {
		return MethodAuto, nil
	}
	for m := Method(0); int(m) < numMethods; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return MethodAuto, fmt.Errorf("unknown method %q", s)
}

// Answer is one ranked query result.
type Answer struct {
	// Doc is the document id; Start/End the element's byte span.
	Doc   uint32
	Start uint32
	End   uint32
	// SID is the element's summary node; Path its label path expression.
	SID  uint32
	Path string
	// Score is the combined relevance score.
	Score float64
}

// Result is a query evaluation outcome.
type Result struct {
	Query  string
	Method Method
	K      int
	// Answers, best first, at most K (all when K <= 0).
	Answers []Answer
	// TotalAnswers counts every answer the retrieval phase produced;
	// only the best K+Offset of them are ranked. For a single
	// target-clause query without negated terms the retrieval phase
	// itself stops at K+Offset (that is the point of top-k evaluation),
	// so TotalAnswers is at most K+Offset; query with k <= 0 to count all
	// matches. Queries with a support clause or a negated term retrieve
	// every match, so for them it counts all matches at any k.
	TotalAnswers int
	// Translation exposes the (sids, terms) the query mapped to.
	Translation *translate.Translation
	// Stats describes the retrieval phase (the part the paper times).
	Stats *retrieval.Stats
	// Plan is the planner's decision when the query came in as
	// MethodAuto and the online planner resolved it: the predicted
	// costs of every candidate method alongside the pick. Nil for
	// fixed-method queries, for cached results, and when feature
	// extraction failed (the query then ran ERA).
	Plan *planner.Decision
	// Trace is the per-query span breakdown (nil when telemetry is
	// disabled): timed phases with page/byte counts attributed per span.
	Trace *telemetry.Trace
	// Approximate reports that the query's deadline expired mid-
	// retrieval: Answers is the correctly ranked best-effort state at
	// the stop point, not the rank-safe top k. Approximate results are
	// never cached.
	Approximate bool
	// Cached reports the result was served from the front door's result
	// cache (identical ranking to a fresh evaluation — the epoch key
	// guarantees no write happened since the fill). Treat a cached
	// Result as read-only: its Answers and Stats are shared.
	Cached bool
}

// flatten returns the union of clause sids (plus the target extents, so
// answer elements are retrieved even when every about() uses a relative
// path) and the distinct positive terms — the "lists sid_1..sid_m and
// t_1..t_n" of the paper's retrieval phase.
func flatten(tr *translate.Translation) (sids []uint32, terms []string) {
	seen := make(map[uint32]bool)
	add := func(list []uint32) {
		for _, s := range list {
			if !seen[s] {
				seen[s] = true
				sids = append(sids, s)
			}
		}
	}
	for i := range tr.Clauses {
		add(tr.Clauses[i].SIDs)
	}
	add(tr.TargetSIDs)
	slices.Sort(sids)
	return sids, tr.DistinctTerms()
}

func negativeTerms(tr *translate.Translation) []string {
	seen := make(map[string]bool)
	var out []string
	for i := range tr.Clauses {
		for _, w := range tr.Clauses[i].NegativeTerms() {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// Translate parses and translates a NEXI query without evaluating it,
// under the vague interpretation (the TReX default).
func (e *Engine) Translate(src string) (*translate.Translation, error) {
	return e.TranslateMode(src, translate.ModeVague)
}

// TranslateMode translates under an explicit interpretation. ModeStrict
// requires exact label matches; over an alias-built summary it therefore
// only matches canonical labels. Results are cached per (query, mode)
// with LRU eviction — a full cache evicts only the least recently used
// entry, so a steady workload larger than the cache degrades gradually
// instead of periodically retranslating everything. AddDocuments
// invalidates the cache (the summary may have grown).
func (e *Engine) TranslateMode(src string, mode translate.Mode) (*translate.Translation, error) {
	e.beginRead()
	defer e.endRead()
	return e.translateMode(src, mode)
}

// translationCacheSize bounds the per-engine translation cache. Workload
// evaluation re-runs the same few queries constantly; translation scans
// every summary node, so caching it matters at high query rates.
const translationCacheSize = 256

// trCacheEntry is one LRU-tracked translation (the key is kept alongside
// the value so eviction can delete its map entry).
type trCacheEntry struct {
	key string
	tr  *translate.Translation
}

// translateMode is TranslateMode without engine-level locking; callers
// hold the read or write side of e.rw.
func (e *Engine) translateMode(src string, mode translate.Mode) (*translate.Translation, error) {
	tr, _, err := e.translateModeHit(src, mode)
	return tr, err
}

// translateModeHit is translateMode plus a cache-hit report, so the
// query trace can mark its translate span as served from cache.
func (e *Engine) translateModeHit(src string, mode translate.Mode) (*translate.Translation, bool, error) {
	key := mode.String() + "\x00" + src
	e.trMu.Lock()
	if el, ok := e.trCache[key]; ok {
		e.trLRU.MoveToFront(el)
		tr := el.Value.(*trCacheEntry).tr
		e.trMu.Unlock()
		if m := e.met; m != nil {
			m.translateHits.Inc()
		}
		return tr, true, nil
	}
	e.trMu.Unlock()
	if m := e.met; m != nil {
		m.translateMisses.Inc()
	}

	q, err := nexi.Parse(src)
	if err != nil {
		return nil, false, err
	}
	tr, err := translate.Translate(q, e.sum, mode)
	if err != nil {
		return nil, false, err
	}
	e.trMu.Lock()
	defer e.trMu.Unlock()
	if e.trCache == nil {
		e.trCache = make(map[string]*list.Element, translationCacheSize)
		e.trLRU = list.New()
	}
	if el, ok := e.trCache[key]; ok {
		// Another goroutine translated the same query concurrently; keep
		// the cached copy canonical.
		e.trLRU.MoveToFront(el)
		return el.Value.(*trCacheEntry).tr, false, nil
	}
	for len(e.trCache) >= translationCacheSize {
		back := e.trLRU.Back()
		e.trLRU.Remove(back)
		delete(e.trCache, back.Value.(*trCacheEntry).key)
	}
	e.trCache[key] = e.trLRU.PushFront(&trCacheEntry{key: key, tr: tr})
	return tr, false, nil
}

// invalidateTranslations drops the cache after a summary change.
func (e *Engine) invalidateTranslations() {
	e.trMu.Lock()
	e.trCache = nil
	e.trLRU = nil
	e.trMu.Unlock()
}

// Materialize builds the redundant lists (RPLs and/or ERPLs) the query
// needs, enabling TA and/or Merge for it. It is a maintenance operation:
// safe to run while queries are served (it takes the engine write lock
// for the build), exclusive with other maintenance operations. kinds must
// name at least one of the two list kinds (retrieval.ErrNoListKinds).
func (e *Engine) Materialize(src string, kinds ...index.ListKind) (*retrieval.MaterializeStats, error) {
	if _, _, err := retrieval.WantKinds(kinds); err != nil {
		return nil, err
	}
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	e.beginWrite()
	defer e.endWrite()
	tr, err := e.translateMode(src, translate.ModeVague)
	if err != nil {
		return nil, err
	}
	sids, terms := flatten(tr)
	sc, err := e.store.NewScorer(terms)
	if err != nil {
		return nil, err
	}
	ms, err := retrieval.Materialize(e.store, sids, terms, sc, kinds...)
	if err != nil {
		return nil, err
	}
	// Publish the new lists to the segment replica before the pager
	// flush: if we die between the two, the reopened pager is still on
	// the old epoch and the index layer rebuilds the segment from it.
	if err := e.store.CommitLists(); err != nil {
		return nil, fmt.Errorf("trex: materialize (segment commit phase, lists built in memory): %w", err)
	}
	if err := e.db.Flush(); err != nil {
		return nil, fmt.Errorf("trex: materialize (commit phase, lists built in memory): %w", err)
	}
	return ms, nil
}

// CanUse reports whether the given method's required lists are fully
// materialized for the query.
func (e *Engine) CanUse(src string, m Method) (bool, error) {
	e.beginRead()
	defer e.endRead()
	tr, err := e.translateMode(src, translate.ModeVague)
	if err != nil {
		return false, err
	}
	sids, terms := flatten(tr)
	switch m {
	case MethodERA, MethodAuto:
		return true, nil
	case MethodTA, MethodNRA:
		return e.store.Covered(index.KindRPL, terms, sids)
	case MethodMerge:
		return e.store.Covered(index.KindERPL, terms, sids)
	default:
		return false, fmt.Errorf("trex: unknown method %d", int(m))
	}
}

// QueryOptions controls evaluation beyond the basic (k, method) pair.
type QueryOptions struct {
	// K is the number of answers (0 = all).
	K int
	// Method defaults to MethodAuto.
	Method Method
	// Mode selects the NEXI interpretation (default vague).
	Mode translate.Mode
	// PhraseBonus scales the proximity bonus quoted phrases earn when
	// their words occur adjacently in an answer (0 disables; 1 is a
	// sensible default weight).
	PhraseBonus float64
	// Offset skips the first Offset answers (pagination). The retrieval
	// phase computes Offset+K answers, so deep pages cost accordingly.
	Offset int
	// NoCache bypasses the result cache for this query (no lookup, no
	// fill). The differential oracle uses it to compare cached and
	// uncached rankings on one engine.
	NoCache bool
}

// Query evaluates a NEXI query, returning the top k answers (all answers
// when k <= 0) using the requested method. MethodAuto resolves through
// the online planner's cost model (Options.Planner).
func (e *Engine) Query(src string, k int, m Method) (*Result, error) {
	return e.QueryOptsCtx(context.Background(), src, QueryOptions{K: k, Method: m})
}

// QueryCtx is Query with a caller context: a deadline bounds evaluation
// (the strategies stop at block boundaries and return a best-effort
// ranking with Result.Approximate set), and a cancellation aborts with
// the context's error.
func (e *Engine) QueryCtx(ctx context.Context, src string, k int, m Method) (*Result, error) {
	return e.QueryOptsCtx(ctx, src, QueryOptions{K: k, Method: m})
}

// QueryOpts evaluates with full options (no caller deadline).
func (e *Engine) QueryOpts(src string, opts QueryOptions) (*Result, error) {
	return e.QueryOptsCtx(context.Background(), src, opts)
}

// QueryOptsCtx is the full query entry point: admission control (when
// configured, the query first claims an execution slot or is shed /
// timed out at the door), the default front-door deadline (applied only
// when the caller brought none), the result cache (epoch-checked lookup
// before evaluation, fill after), and finally the evaluation pipeline.
// Successful queries — cached or not — are fed to the autopilot's
// workload tracker so index selection follows observed traffic.
func (e *Engine) QueryOptsCtx(ctx context.Context, src string, opts QueryOptions) (*Result, error) {
	var queueWait time.Duration
	if adm := e.adm; adm != nil {
		release, wait, err := adm.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		queueWait = wait
		if m := e.met; m != nil && m.queueWait != nil {
			m.queueWait.Observe(wait.Seconds())
		}
	}
	if d := e.fd.Deadline; d > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}

	e.beginRead()
	var ckey string
	var epoch uint64
	cache := e.rcache
	useCache := cache != nil && !opts.NoCache
	if useCache {
		ckey = cacheKey(src, opts)
		// The epoch cannot move while we hold the read lock (beginWrite
		// bumps it under the exclusive lock), so a hit at this epoch is
		// exactly as fresh as an evaluation started now — and a fill
		// below tags the entry with the epoch its evaluation saw.
		epoch = e.writeEpoch.Load()
		if v, ok := cache.Get(ckey, epoch); ok {
			e.endRead()
			out := *v.(*Result)
			out.Cached = true
			out.Trace = nil
			out.Plan = nil
			e.observePilot(src, opts.K)
			return &out, nil
		}
	}
	res, err := e.queryOpts(ctx, src, opts, queueWait)
	if err == nil && useCache && !res.Approximate {
		cache.Put(ckey, epoch, res)
	}
	e.endRead()
	if err == nil {
		e.observePilot(src, opts.K)
	}
	return res, err
}

// observePilot feeds a successful query to the autopilot's workload
// tracker (when enabled).
func (e *Engine) observePilot(src string, k int) {
	if p := e.pilot.Load(); p != nil {
		if k <= 0 {
			// Track "all answers" queries at the shared default k — the
			// workload model (Definition 4.1) needs a concrete k.
			k = DefaultK
		}
		p.Observe(src, k)
	}
}

// cacheKey folds every ranking-relevant option into the result-cache
// key. Anything that can change Answers must appear here; NoCache must
// not (it only controls cache participation).
func cacheKey(src string, opts QueryOptions) string {
	return strconv.Itoa(opts.K) + "\x00" + strconv.Itoa(int(opts.Method)) + "\x00" +
		strconv.Itoa(int(opts.Mode)) + "\x00" + strconv.Itoa(opts.Offset) + "\x00" +
		strconv.FormatFloat(opts.PhraseBonus, 'g', -1, 64) + "\x00" + src
}

// queryOpts runs the query pipeline, wrapped in telemetry when enabled:
// a per-query trace (spans with I/O attribution), per-method counters
// and latency histograms, retrieval effort counters, and the slow-query
// log. With telemetry disabled it is exactly the bare pipeline.
func (e *Engine) queryOpts(ctx context.Context, src string, opts QueryOptions, queueWait time.Duration) (*Result, error) {
	met := e.met
	if met == nil {
		return e.queryCore(ctx, src, opts, nil)
	}

	trc := telemetry.NewTrace(src, opts.K)
	trc.Queue = queueWait
	win := met.guard.Enter()
	res, err := e.queryCore(ctx, src, opts, trc)
	win.Exit()
	trc.Finish()
	if err != nil {
		met.queryErrors.Inc()
		return nil, err
	}

	trc.Method = res.Method.String()
	// The per-query I/O deltas are exact only when the measurement
	// window had the shared counters to itself: no overlapping query
	// window and no writer traffic (captureIO's view).
	exact := win.Exclusive()
	if st := res.Stats; st != nil {
		st.IOExact = st.IOExact && exact
		trc.IOExact = st.IOExact
	} else {
		trc.IOExact = exact
	}
	res.Trace = trc

	mi := methodIndex(res.Method)
	met.queries[mi].Inc()
	met.queryDur.Observe(trc.Wall.Seconds())
	for i := 0; i < numPhases; i++ {
		if sp := trc.FindSpan(phaseNames[i]); sp != nil {
			met.phaseDur[i].Observe(sp.Dur.Seconds())
			if i == phaseRetrieve {
				met.retrievalDur[mi].Observe(sp.Dur.Seconds())
			}
		}
	}
	if st := res.Stats; st != nil {
		met.blockSkips.Add(uint64(st.BlockSkips))
		met.sortedAccesses.Add(uint64(st.SortedAccesses))
		met.randomAccesses.Add(uint64(st.RandomAccesses))
		met.heapOps.Add(uint64(st.HeapOps))
		met.cursorSteps.Add(uint64(st.CursorSteps))
		if st.ThresholdStop {
			met.thresholdStops.Inc()
		}
	}
	if met.slow.Maybe(telemetry.SlowLogEntry{
		Query:  src,
		Method: trc.Method,
		K:      opts.K,
		// Wall is the client-visible latency: queue wait plus evaluation.
		Wall:      trc.Wall + queueWait,
		QueueWait: queueWait,
		Trace:     trc,
	}) {
		met.slowQueries.Inc()
	}
	return res, nil
}

// queryCore is the bare query pipeline. When trc is non-nil it brackets
// each phase in a trace span and attributes the engine's shared I/O
// counter deltas to it; every instrumentation step is alloc-free so the
// telemetry overhead stays at the trace's own two allocations.
func (e *Engine) queryCore(ctx context.Context, src string, opts QueryOptions, trc *telemetry.Trace) (*Result, error) {
	k, m := opts.K, opts.Method

	var ioPrev index.IOStat
	span := -1
	if trc != nil {
		ioPrev = e.store.IOStats()
		span = trc.StartSpan("translate")
	}
	tr, hit, err := e.translateModeHit(src, opts.Mode)
	if trc != nil {
		sp, now := e.endSpanIO(trc, span, ioPrev)
		sp.Cached = hit
		ioPrev = now
	}
	if err != nil {
		return nil, err
	}

	if trc != nil {
		span = trc.StartSpan("plan")
	}
	sids, terms, negs, err := e.evalTerms(tr)
	if err != nil {
		return nil, err
	}
	sc, err := e.store.NewScorer(append(append([]string{}, terms...), negs...))
	if err != nil {
		return nil, err
	}

	// Computed before method resolution: the planner's k feature must be
	// the k the retrieval phase will actually see.
	depth := rankDepth(k, opts.Offset)
	kEval := retrievalK(tr, negs, depth)

	// Every query's feature vector is extracted (stat-cache lookups, no
	// page reads when warm): auto queries plan with it, and every exactly
	// measured run — fixed method or planned — calibrates the model with
	// it afterwards. When extraction fails on a storage error, auto runs
	// ERA, which needs no lists.
	feats, ferr := planFeatures(e.store, sids, terms, kEval)
	featsOK := ferr == nil
	var plan *planner.Decision
	if m == MethodAuto {
		if featsOK {
			d := e.pln.model.Plan(feats)
			plan = &d
			m = toEngineMethod(d.Method)
			e.pln.decisions[d.Method].Add(1)
		} else {
			m = MethodERA
			e.pln.fallbacks.Add(1)
		}
	}
	if trc != nil {
		sp, now := e.endSpanIO(trc, span, ioPrev)
		sp.Method = m.String()
		ioPrev = now
	}

	if trc != nil {
		span = trc.StartSpan("retrieve")
	}
	scored, stats, err := e.retrieve(ctx, m, sids, terms, sc, kEval)
	if trc != nil {
		sp, now := e.endSpanIO(trc, span, ioPrev)
		ioPrev = now
		sp.Method = m.String()
		if stats != nil {
			sp.CursorSteps = stats.CursorSteps
			sp.SortedAccesses = stats.SortedAccesses
			sp.RandomAccesses = stats.RandomAccesses
			sp.HeapOps = stats.HeapOps
			sp.BlockSkips = stats.BlockSkips
			sp.ListReads = stats.ListReads
			sp.Items = stats.Answers
			// The heap share of retrieval, pre-measured by the strategy.
			trc.AddSpan(telemetry.Span{Name: "retrieve/heap", Start: sp.Start, Dur: stats.HeapTime})
		}
	}
	if err != nil {
		return nil, err
	}
	if featsOK {
		// Calibrate on the executed method; shadow-sample auto-planned
		// queries so the runner-up's cost keeps the model honest.
		e.observeRun(m, feats, stats)
		if plan != nil && plan.RunnerUp >= 0 && stats != nil && !stats.Approximate {
			if ru := toEngineMethod(plan.RunnerUp); ru != m && e.pln.shouldShadow() {
				e.launchShadow(ru, sids, terms, sc, kEval, feats, stats.CostProxy())
			}
		}
	}

	if trc != nil {
		span = trc.StartSpan("combine")
	}
	answers, total, err := e.combine(tr, scored, negs, sc, opts.PhraseBonus, depth)
	if err != nil {
		return nil, err
	}
	answers = page(answers, k, opts.Offset)
	if trc != nil {
		sp, _ := e.endSpanIO(trc, span, ioPrev)
		sp.Items = len(answers)
	}
	return &Result{
		Query:        src,
		Method:       m,
		K:            k,
		Answers:      answers,
		TotalAnswers: total,
		Translation:  tr,
		Stats:        stats,
		Plan:         plan,
		Approximate:  stats != nil && stats.Approximate,
	}, nil
}

// evalTerms flattens tr into the sids and positive terms retrieval reads
// and the negated terms combine penalizes. Stopworded terms carry no
// signal: the index has no postings for them, so they are dropped up front
// (a stopword-only query matches nothing, mirroring classic IR engines).
func (e *Engine) evalTerms(tr *translate.Translation) (sids []uint32, terms, negs []string, err error) {
	sids, terms = flatten(tr)
	if terms, err = e.store.FilterStopwords(terms); err != nil {
		return nil, nil, nil, err
	}
	if negs, err = e.store.FilterStopwords(negativeTerms(tr)); err != nil {
		return nil, nil, nil, err
	}
	return sids, terms, negs, nil
}

// rankDepth is how many of the best answers a page of k answers at offset
// needs ranked: k + offset, or 0 (all of them) when k <= 0.
func rankDepth(k, offset int) int {
	if k <= 0 {
		return 0
	}
	return k + max(offset, 0)
}

// retrievalK is the k a query's retrieval phase runs at, given its rank
// depth (negs are its stopword-filtered negated terms). Multi-clause
// queries combine scores across elements (support clauses contribute
// containment bonuses) and negated terms lower scores after retrieval, so
// those queries' retrieval phase must produce all matches (0). A single
// target-clause query with no negated term ranks purely by per-element
// scores — support bonuses cannot apply (every retrieved element is an
// answer) — so the depth pushes down into the strategy, which is the
// whole point of top-k evaluation. Query and Explain both plan at it.
func retrievalK(tr *translate.Translation, negs []string, depth int) int {
	if len(tr.Clauses) == 1 && tr.Clauses[0].IsTarget && len(negs) == 0 {
		return depth
	}
	return 0
}

// page cuts the k answers at offset out of a ranking (all answers from
// offset on when k <= 0).
func page(answers []Answer, k, offset int) []Answer {
	if offset > 0 {
		if offset >= len(answers) {
			return nil
		}
		answers = answers[offset:]
	}
	if k > 0 && len(answers) > k {
		answers = answers[:k]
	}
	return answers
}

// retrieve runs the given strategy's retrieval phase.
func (e *Engine) retrieve(ctx context.Context, m Method, sids []uint32, terms []string, sc *score.Scorer, kEval int) ([]retrieval.Scored, *retrieval.Stats, error) {
	kTA := kEval
	if kTA <= 0 {
		// TA needs a concrete k; for full evaluation use a bound no
		// answer set can exceed.
		kTA = 1 << 30
	}
	switch m {
	case MethodERA:
		return retrieval.ExhaustiveTopKCtx(ctx, e.store, sids, terms, sc, kEval)
	case MethodTA:
		return retrieval.TACtx(ctx, e.store, sids, terms, sc, kTA)
	case MethodNRA:
		return retrieval.NRACtx(ctx, e.store, sids, terms, kTA)
	case MethodMerge:
		return retrieval.MergeCtx(ctx, e.store, sids, terms, kEval)
	default:
		return nil, nil, fmt.Errorf("trex: unknown method %d", int(m))
	}
}

// phrases returns the positive quoted phrases of the query.
func phrases(tr *translate.Translation) [][]string {
	var out [][]string
	for i := range tr.Clauses {
		for _, t := range tr.Clauses[i].Terms {
			if !t.Minus && len(t.Phrase) > 1 {
				out = append(out, t.Phrase)
			}
		}
	}
	return out
}

// combine ranks the flattened retrieval result into the best keep answers
// (all when keep <= 0) and counts every answer: see combiner.rank.
func (e *Engine) combine(tr *translate.Translation, scored []retrieval.Scored, negs []string, sc *score.Scorer, phraseBonus float64, keep int) ([]Answer, int, error) {
	c := combiner{
		targets: tr.TargetSIDs,
		sc:      sc,
		negs:    negs,
		path: func(sid uint32) string {
			if n := e.sum.NodeBySID(int(sid)); n != nil {
				return n.XPathExpr()
			}
			return ""
		},
	}
	if len(negs) > 0 {
		probes := make([]*index.SpanProbe, len(negs))
		for i, w := range negs {
			probes[i] = index.NewSpanProbe(e.store, w)
		}
		c.negTF = func(i int, el index.Element) (int, error) { return probes[i].Count(el) }
	}
	if phraseBonus > 0 {
		c.phrases = phrases(tr)
		c.phraseBonus = phraseBonus
		c.phraseFreq = func(words []string, el index.Element) (int, error) {
			return index.PhraseFreqInSpan(e.store, words, el)
		}
	}
	return c.rank(scored, keep)
}
