package main

// layers.go is the traced run's extra work: replaying requests layer by
// layer, the micro-probes, and the per-layer metrics. The program has no
// spans of its own yet, so a layer is measured from outside, by timing
// the benchmark's own calls into its public functions.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"
)

const (
	directReps   = 3    // direct retrieval calls per (cell, method)
	probeSteps   = 4096 // iterator / cursor steps per micro-probe
	httpReplays  = 300  // serve requests replayed layer by layer
	probeCommits = 6    // commits on the timing backend
)

// set records a per-layer metric.
func (r *run) set(name string, v float64) { r.layer[name] = v }

// replayAndProbe runs after the grid, while every grid query has its
// lists: one layer-by-layer replay per cell, direct calls of every
// retrieval function, and the probes of the layers below them.
func (r *run) replayAndProbe(ctx context.Context) error {
	type acc struct {
		ms                                   []float64
		allocs, pages, bytes, sorted, heapOp float64
		calls                                int
	}
	per := map[string]*acc{}
	for _, m := range fixedMethods {
		per[m] = &acc{}
	}
	var parseUS, transUS, sids, engineAllocs []float64
	var taRandom, mergeSkips, taDepth, taStops, taCells float64

	for _, c := range r.cells {
		s := r.sutFor(c.q)
		st := s.store()

		// request → engine → translate, retrieval.
		req := r.rec.newRequest()
		var root, eng int
		var got answer
		var err error
		engineAllocs = append(engineAllocs, float64(mallocs(func() {
			root = r.rec.begin("loadgen", "request", -1, req)
			eng = r.rec.begin("engine", "query/auto", root, req)
			got, err = s.query(ctx, c.q.nexi, c.k, "auto", true)
			r.rec.end(eng)
			r.rec.end(root)
		})))
		if err != nil {
			return fmt.Errorf("replay %s k=%d: %w", c.q.id, c.k, err)
		}
		plan, parse, trans, err := r.replayBelowEngine(ctx, s, eng, got, c.q.nexi, c.k)
		if err != nil {
			return err
		}
		parseUS = append(parseUS, float64(parse)/1e3)
		transUS = append(transUS, float64(trans)/1e3)
		sids = append(sids, float64(len(plan.sids)))

		// Every retrieval function, called directly.
		for _, m := range fixedMethods {
			a := per[m]
			var walls []time.Duration
			var rs retrievalStats
			for rep := 0; rep < directReps; rep++ {
				n := mallocs(func() {
					id := r.rec.begin("retrieval", m, -1, r.rec.newRequest())
					rs, err = st.retrieve(ctx, m, plan, c.k)
					walls = append(walls, r.rec.end(id))
				})
				if err != nil {
					return fmt.Errorf("direct %s on %s k=%d: %w", m, c.q.id, c.k, err)
				}
				a.allocs += float64(n)
				a.calls++
			}
			a.ms = append(a.ms, ms(median(walls)))
			a.pages += float64(rs.pageReads)
			a.bytes += float64(rs.bytesRead)
			a.sorted += float64(rs.sortedAccesses)
			a.heapOp += float64(rs.heapOps)
			switch m {
			case "ta":
				taRandom += float64(rs.randomAccesses)
				taDepth += rs.depthFraction
				taCells++
				if rs.thresholdStop {
					taStops++
				}
			case "merge":
				mergeSkips += float64(rs.blockSkips)
			}
		}
	}
	for m, a := range per {
		p := "retrieval." + m
		r.set(p+"_ms", geomean(a.ms))
		r.set(p+"_allocs_op", ratio(a.allocs, float64(a.calls)))
		r.set(p+"_page_reads", a.pages)
		r.set(p+"_bytes_read", a.bytes)
		r.set(p+"_sorted_accesses", a.sorted)
		r.set(p+"_heap_ops", a.heapOp)
	}
	r.set("retrieval.ta_random_accesses", taRandom)
	r.set("retrieval.merge_block_skips", mergeSkips)
	r.set("retrieval.ta_depth_fraction", ratio(taDepth, taCells))
	r.set("retrieval.threshold_stop_ratio", ratio(taStops, taCells))
	r.set("translate.parse_us", medianF(parseUS))
	r.set("translate.translate_us", medianF(transUS))
	r.set("translate.sids", medianF(sids))
	r.set("engine.allocs_op", medianF(engineAllocs))

	// planner: the auto column against the fastest fixed column.
	var vsBest, traced, plain []float64
	for _, c := range r.cells {
		best := c.wall["era"]
		for _, m := range fixedMethods {
			if c.wall[m] < best {
				best = c.wall[m]
			}
		}
		vsBest = append(vsBest, ratio(float64(c.wall["auto"]), float64(best)))
		for _, m := range allMethods {
			if c.traced[m] > 0 {
				traced = append(traced, float64(c.traced[m]))
				plain = append(plain, float64(c.wall[m]))
			}
		}
	}
	r.set("planner.auto_vs_best", geomean(vsBest))
	r.set("loadgen.trace_overhead_ratio", ratio(geomean(traced), geomean(plain)))

	return r.probe(ctx)
}

// probe times the public iterators and readers of the index, segment,
// storage, front-door and jsoncorpus layers on the open database.
func (r *run) probe(ctx context.Context) error {
	q := r.spec.grid[0]
	s := r.sutFor(q)
	plan, _, _, err := s.parseAndTranslate(q.nexi)
	if err != nil {
		return err
	}
	pr, err := s.store().probeIndex(plan, probeSteps)
	if err != nil {
		return err
	}
	for k, v := range pr {
		r.set(k, v)
	}
	for k, v := range s.probeSegment(probeSteps) {
		r.set(k, v)
	}
	r.set("frontdoor.cache_get_ns", probeResultCache(256, probeSteps))

	t0 := time.Now()
	for _, p := range jsonPaths {
		if _, err := jsonPathToNEXI(p); err != nil {
			return err
		}
	}
	r.set("jsoncorpus.jsonpath_us", float64(time.Since(t0))/1e3/float64(len(jsonPaths)))

	// The pager and the device under it, through a second handle on the
	// database file with a page cache of the workload's size: B+tree
	// get / seek / next, then the two base-table strategies once per
	// first-collection cell for the time spent in backend reads.
	side, err := openSideStore(r.suts[0].path, r.cfg.cachePages)
	if err != nil {
		return err
	}
	defer side.close()
	pp, err := side.probePager(probeSteps)
	if err != nil {
		return err
	}
	for k, v := range pp {
		r.set(k, v)
	}
	before := side.be.readNS.Load()
	for _, c := range r.cells {
		if c.q.corpus != 0 {
			continue
		}
		plan, _, _, err := r.suts[0].parseAndTranslate(c.q.nexi)
		if err != nil {
			return err
		}
		for _, m := range []string{"era", "ta"} {
			if _, err := side.retrieve(ctx, m, plan, c.k); err != nil {
				return err
			}
		}
	}
	r.set("storage.backend_read_ms", float64(side.be.readNS.Load()-before)/1e6)
	return nil
}

// replayHTTP replays serve requests layer by layer: request → webapi
// (the HTTP round trip) → engine → translate, retrieval. The engine
// child is the same query in-process — through the result cache when
// the response said "cached", past it otherwise.
func (r *run) replayHTTP(ctx context.Context, hc httpClient) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x7ace))
	cachedMark := []byte(`"cached":true`)
	for _, i := range zipfSequence(httpReplays, len(r.pool), rng) {
		p := r.pool[i]
		req := r.rec.newRequest()
		root := r.rec.begin("loadgen", "request", -1, req)
		web := r.rec.begin("webapi", "GET /search", root, req)
		body, err := hc.get(ctx, i)
		r.rec.end(web)
		r.rec.end(root)
		if err != nil {
			r.fail("replay %s: %v", p.nexi, err)
			continue
		}
		cached := bytes.Contains(body, cachedMark)
		t0 := time.Now()
		got, err := r.suts[0].query(ctx, p.nexi, p.k, "auto", !cached)
		eng := r.rec.placeChild("engine", "query/auto", web, time.Since(t0))
		if err != nil {
			r.fail("replay %s in-process: %v", p.nexi, err)
			continue
		}
		if cached {
			continue
		}
		if _, _, _, err := r.replayBelowEngine(ctx, r.suts[0], eng, got, p.nexi, p.k); err != nil {
			r.fail("replay %s below the engine: %v", p.nexi, err)
		}
	}
}

// replayBelowEngine calls the layers under one engine call again — parse,
// translate, and the retrieval function the engine reported — and lays
// them out as children of the engine span eng. The translate children
// are left out when the engine's own trace says its translation cache
// answered. It returns the flattened query and the two translate times.
func (r *run) replayBelowEngine(ctx context.Context, s *sut, eng int, got answer, nexiSrc string, k int) (*retrievalPlan, time.Duration, time.Duration, error) {
	plan, parse, trans, err := s.parseAndTranslate(nexiSrc)
	if err != nil {
		return nil, 0, 0, err
	}
	if !got.translateCached() {
		r.rec.placeChild("translate", "nexi.Parse", eng, parse)
		r.rec.placeChild("translate", "translate.Translate", eng, trans)
	}
	t0 := time.Now()
	if _, err := s.store().retrieve(ctx, got.method(), plan, k); err != nil {
		return nil, 0, 0, err
	}
	r.rec.placeChild("retrieval", got.method(), eng, time.Since(t0))
	return plan, parse, trans, nil
}

// writeProbe streams a few batches into a small engine built over the
// timing backend, for the device's share of a commit.
func (r *run) writeProbe() error {
	be, err := openTimedBackend(scratchPath(r.dir, "write-probe"))
	if err != nil {
		return err
	}
	docs := r.spec.corpora[0].docs / 2
	if docs > 300 {
		docs = 300
	}
	s, err := createSUTOn(be, r.corpora[0], docs, engineConfig{cachePages: r.cfg.cachePages})
	if err != nil {
		be.Close()
		return err
	}
	defer s.close()
	w0, s0 := be.writeNS.Load(), be.syncNS.Load()
	ing := s.newIngestor()
	next := docs
	for c := 0; c < probeCommits; c++ {
		for i := 0; i < r.spec.batch; i++ {
			if err := ing.add(r.corpora[0].doc(next)); err != nil {
				return err
			}
			next++
		}
		if _, err := ing.commit(); err != nil {
			return err
		}
	}
	r.set("storage.backend_write_ms", float64(be.writeNS.Load()-w0)/1e6/probeCommits)
	r.set("storage.sync_ms", float64(be.syncNS.Load()-s0)/1e6/probeCommits)
	return nil
}

// noteFinalCounters reads every layer's public counters once the
// phases are over, before the database is closed. The result cache is
// only used by the serve loop (every other query goes past it), so its
// counters describe that phase alone.
func (r *run) noteFinalCounters() {
	c := r.suts[0].counters()
	fd := c
	if r.afterServe != nil {
		// Taken before the replays, which go through the cache again.
		fd = *r.afterServe
	}
	for _, s := range r.suts[1:] {
		o := s.counters()
		c.pagesRead += o.pagesRead
		c.cacheHits += o.cacheHits
		c.cacheMisses += o.cacheMisses
		c.segRows += o.segRows
		c.segBytes += o.segBytes
		c.segMapped += o.segMapped
		for m, n := range o.planned {
			c.planned[m] += n
		}
	}
	r.set("frontdoor.cache_hit_ratio", ratio(float64(fd.fdHits), float64(fd.fdHits+fd.fdMisses)))
	r.set("frontdoor.cache_evictions", float64(fd.fdEvictions))
	r.set("frontdoor.cache_invalidations", float64(c.fdInvalidations))
	r.set("frontdoor.shed", float64(c.fdShed))
	r.set("frontdoor.queue_timeouts", float64(c.fdTimedOut))

	var planned float64
	for _, n := range c.planned {
		planned += float64(n)
	}
	for _, m := range fixedMethods {
		r.set("planner.route_share_"+m, ratio(float64(c.planned[m]), planned))
	}
	r.set("planner.fallbacks", float64(c.planFallbacks))

	r.set("segment.mapped_bytes", float64(c.segMapped))
	r.set("segment.rows_read", float64(c.segRows))
	r.set("segment.bytes_read", float64(c.segBytes))
	r.set("segment.swaps", float64(c.segSwaps))
	r.set("segment.gens_retired", float64(c.segRetired))

	r.set("storage.cache_hit_ratio", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)))
	r.set("storage.pages_read", float64(c.pagesRead))
	r.set("storage.pages_written", float64(c.pagesWritten))
	r.set("storage.flushes", float64(c.flushes))
	r.set("storage.journal_pages", float64(c.journalPages))
	r.set("storage.write_amp", ratio(float64(c.pagesWritten)*4096, float64(r.streamedRaw)))
}

// layerMetrics assembles the traced run's report: exactly the metrics
// BENCHMARK.json lists under per_layer, zero where a layer did no work
// on this workload.
func (r *run) layerMetrics(bm *benchmarkFile) ([]metric, error) {
	self := r.rec.selfTimes()
	r.set("webapi.self_ms", ms(median(self["webapi"])))
	r.set("engine.self_ms", ms(median(self["engine"])))
	r.set("webapi.resp_bytes", ratio(float64(r.respBytes), float64(r.respCount)))
	r.set("loadgen.late_p99_ms", ms(percentile(r.serveLate, 0.99)))
	r.set("loadgen.replay_clamped", float64(r.rec.clamped))
	r.set("loadgen.fail_ratio", ratio(float64(r.failed), float64(r.attempted.Load())))

	docs := float64(r.streamedDocs)
	r.set("ingest.stage_us_per_doc", float64(median(r.stagePerDoc))/1e3)
	r.set("ingest.commit_ms_per_doc", ratio(ms(median(r.commits)), float64(r.spec.batch)))
	r.set("ingest.commit_p95_ms", ms(percentile(r.commits, 0.95)))
	if n := (len(r.commits) + 9) / 10; n > 0 {
		first, last := r.commits[:n], r.commits[len(r.commits)-n:]
		r.set("ingest.commit_slope", ratio(float64(median(last)), float64(median(first))))
	}
	r.set("ingest.dropped_list_entries", float64(r.droppedLists))
	r.set("ingest.postings_per_doc", ratio(float64(r.postings), docs))
	r.set("selfmanage.replan_ms", ms(median(r.replans)))
	var kept float64
	for _, k := range r.replanKept {
		kept += float64(k)
	}
	r.set("selfmanage.lists_materialized", ratio(kept, float64(len(r.replanKept))))
	r.set("selfmanage.list_bytes", float64(r.listBytes))
	r.set("selfmanage.materialize_mb_s", ratio(float64(r.matBytes)/1e6, r.matTime.Seconds()))

	out := make([]metric, 0, len(bm.PerLayer))
	for _, d := range bm.PerLayer {
		out = append(out, metric{Name: d.Name, Value: r.layer[d.Name], Unit: d.Unit, Samples: 1})
	}
	declared := make(map[string]bool, len(bm.PerLayer))
	for _, d := range bm.PerLayer {
		declared[d.Name] = true
	}
	for name := range r.layer {
		if !declared[name] {
			return nil, fmt.Errorf("per-layer metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}
