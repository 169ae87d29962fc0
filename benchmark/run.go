package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Trace       bool     `json:"trace"`
	Smoke       bool     `json:"smoke,omitempty"`
	Fingerprint string   `json:"fingerprint"`
	Attempted   int64    `json:"attempted"`
	Failed      int      `json:"failed"`
	Failure     string   `json:"failure,omitempty"`
	Metrics     []metric `json:"metrics"`
	// PhaseSeconds is where the run's own wall time went (not a metric).
	PhaseSeconds map[string]float64 `json:"phaseSeconds"`
}

// runOptions are the command line's choices for one run.
type runOptions struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	scratch   string // parent of the run's scratch directory
	spansPath string // where a traced run writes its spans ("" = don't)
}

// readerKs are the values of k the reader beside a writer asks each query
// with: 8 queries x 64 = 512 distinct requests, twice the result cache. A
// hot loop over 8 cached requests would measure the cache, not reads
// beside writes.
var readerKs = func() []int {
	ks := make([]int, 64)
	for i := range ks {
		ks[i] = 10 + i
	}
	return ks
}()

// serveLadder is the k of the in-process serve loops: finer than the
// grid's, so the loop also asks what lies between the paper's points.
var serveLadder = []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// warmCachePages is a page cache larger than any database the benchmark
// builds (256 MiB).
const warmCachePages = 1 << 16

// runWorkload executes one workload and returns its metrics: the
// end-to-end ones for an untraced run, the per-layer ones for a traced
// run.
func runWorkload(ctx context.Context, o runOptions, bm *benchmarkFile) (*result, error) {
	sp, err := specFor(o.workload, o.smoke)
	if err != nil {
		return nil, err
	}
	sp = sp.scaled(o.seconds / float64(bm.RunSeconds))
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	resetPeakRSS()
	r := &run{spec: sp, seed: o.seed, trace: o.trace, dir: dir, phases: map[string]float64{}}
	if o.trace {
		r.rec = newRecorder()
		r.layer = make(map[string]float64)
	}
	defer r.closeAll()

	r.phase("setup")
	for rep := 0; rep < sp.setupReps; rep++ {
		r.closeAll()
		if err := r.setupOnce(rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	fp := r.fingerprint()
	if err := checkGolden(o, bm, fp); err != nil {
		return nil, err
	}
	// The collections are indexed; only the documents the write phase
	// still streams are needed from here on.
	for i := 1; i < len(r.corpora); i++ {
		r.corpora[i].col = nil
	}

	if sp.readerBesideWriter {
		err = r.readWritePhases(ctx)
	} else {
		err = r.readThenWritePhases(ctx)
	}
	if err != nil {
		return nil, err
	}
	r.phase("finish")
	if err := r.finish(ctx); err != nil {
		return nil, err
	}
	r.phase("")

	res := &result{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Fingerprint: fp, Attempted: r.attempted.Load(), Failed: r.failed, Failure: r.firstFailure,
		PhaseSeconds: r.phases}
	if o.trace {
		if err := r.rec.checkNesting(); err != nil {
			return nil, err
		}
		if o.spansPath != "" {
			if err := r.rec.write(o.spansPath); err != nil {
				return nil, err
			}
		}
		if res.Metrics, err = r.layerMetrics(bm); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = r.endToEndMetrics()
	}
	return res, nil
}

// readThenWritePhases is the order of the read-mostly workloads: grid,
// serve loop, then the write cycles on the same database.
func (r *run) readThenWritePhases(ctx context.Context) error {
	defer r.phase("check")()
	if err := r.checkGrid(ctx); err != nil {
		return err
	}
	r.phase("grid")
	r.runGrid(ctx)
	if r.trace {
		r.phase("replay")
		if err := r.replayAndProbe(ctx); err != nil {
			return err
		}
	}
	r.phase("references")
	if err := r.buildReferences(ctx); err != nil {
		return err
	}
	r.phase("serve")
	if r.spec.http {
		hc, stop, err := startHTTP(r.suts[0], r.spec.clients)
		if err != nil {
			return err
		}
		hc.r = r
		r.runServe(ctx, hc, "webapi", nil)
		if r.trace {
			c := r.suts[0].counters()
			r.afterServe = &c
			r.replayHTTP(ctx, hc)
		}
		stop()
	} else {
		r.runServe(ctx, engineClient{r: r, verify: true}, "engine", nil)
	}
	r.phase("write")
	return r.runWrites()
}

// readWritePhases is the ingest workload's order: the reader runs
// beside the writer until the writer ends; the grid is measured on the
// final collection, with every list built.
func (r *run) readWritePhases(ctx context.Context) error {
	defer r.phase("write")()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.runServe(ctx, engineClient{r: r}, "engine", stop)
	}()
	err := r.runWrites()
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	r.phase("check")
	if err := r.materializeGrid(); err != nil {
		return err
	}
	if err := r.checkGrid(ctx); err != nil {
		return err
	}
	r.phase("grid")
	r.runGrid(ctx)
	if r.trace {
		r.phase("replay")
		return r.replayAndProbe(ctx)
	}
	return nil
}

// phase closes the wall-time account of the phase in progress and opens
// one for name; the returned func closes the last one.
func (r *run) phase(name string) func() {
	now := time.Now()
	if r.phaseName != "" {
		r.phases[r.phaseName] += now.Sub(r.phaseStart).Seconds()
	}
	r.phaseName, r.phaseStart = name, now
	return func() { r.phase("") }
}

// setupOnce generates the inputs and builds the databases the way a
// user would before serving: create, choose and build the lists, close,
// reopen. Its wall time is one set-up sample.
func (r *run) setupOnce(rep int) error {
	sp := r.spec
	t0 := time.Now()
	r.corpora, r.suts, r.cells, r.rawInitial = nil, nil, nil, nil
	r.cfg = engineConfig{cachePages: warmCachePages, frontDoor: sp.frontDoor, cacheEntries: 256}
	if sp.http {
		r.cfg.maxInflight = sp.clients
	}
	for i, cs := range sp.corpora {
		tail := 0
		if i == 0 {
			tail = sp.cycles * sp.batch
		}
		var extra []topic
		if cs.poolTopics {
			extra = poolTopics()
		}
		c, err := generateCorpus(cs.universe, cs.docs, tail, r.seed, extra)
		if err != nil {
			return err
		}
		r.corpora = append(r.corpora, c)
		r.rawInitial = append(r.rawInitial, c.rawBytes(0, cs.docs))
		s, err := createSUT(scratchPath(r.dir, fmt.Sprintf("%s-%d", cs.universe, rep)), c, cs.docs, r.cfg)
		if err != nil {
			return err
		}
		r.suts = append(r.suts, s)
	}
	for _, q := range sp.grid {
		for _, k := range sp.ks {
			r.cells = append(r.cells, &cell{q: q, k: k})
		}
	}

	// What the serve loop asks: a generated pool, or the grid's queries
	// at the reader's or the serve ladder's values of k. The
	// self-management workload is the pool's hottest requests, or the
	// grid's own queries on the first collection.
	r.hot, r.pool = nil, nil
	if sp.poolSize > 0 {
		r.pool = buildPool(sp.poolSize)
		for i := 0; i < sp.hotQueries && i < len(r.pool); i++ {
			r.hot = append(r.hot, workloadQuery{nexi: r.pool[i].nexi, freq: 1 / float64(i+1), k: r.pool[i].k})
		}
	} else {
		ks := serveLadder
		if sp.readerBesideWriter {
			ks = readerKs
		}
		for _, k := range ks {
			for _, q := range sp.grid {
				r.pool = append(r.pool, request{nexi: q.nexi, k: k, corpus: q.corpus})
			}
		}
		for _, q := range sp.grid {
			if q.corpus == 0 {
				r.hot = append(r.hot, workloadQuery{nexi: q.nexi, freq: 1, k: 10})
			}
		}
	}
	r.budget = 1 << 60
	if sp.halfBudget {
		full, err := r.suts[0].selfManage(r.hot, r.budget)
		if err != nil {
			return err
		}
		r.budget = full.diskUsed / 2
		if _, err := r.suts[0].selfManage(r.hot, r.budget); err != nil {
			return err
		}
	}
	if !sp.readerBesideWriter {
		if err := r.materializeGrid(); err != nil {
			return err
		}
	}

	if sp.cacheFraction > 0 {
		r.cfg.cachePages = max(32, int(float64(r.suts[0].diskBytes())/4096*sp.cacheFraction))
	}
	for i, s := range r.suts {
		path := s.path
		if err := s.close(); err != nil {
			return err
		}
		re, err := openSUT(path, r.cfg)
		if err != nil {
			return err
		}
		r.suts[i] = re
	}
	r.setup = append(r.setup, time.Since(t0))
	return nil
}

// materializeGrid builds the RPLs and ERPLs of every grid query, so all
// four fixed methods can answer it.
func (r *run) materializeGrid() error {
	t0 := time.Now()
	for _, q := range r.spec.grid {
		n, err := r.sutFor(q).materialize(q.nexi)
		if err != nil {
			return fmt.Errorf("materialize %s: %w", q.id, err)
		}
		r.matBytes += n
	}
	r.matTime += time.Since(t0)
	return nil
}

// buildReferences computes the reference answer of every serve request
// with ERA, in-process, past the result cache; two goroutines share the
// work.
func (r *run) buildReferences(ctx context.Context) error {
	r.refs = make([]answer, len(r.pool))
	r.refHits = make([][]byte, len(r.pool))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(r.pool); i += len(errs) {
				p := r.pool[i]
				ref, err := r.suts[p.corpus].query(ctx, p.nexi, p.k, "era", true)
				r.refs[i] = ref
				if err == nil && r.spec.http {
					r.refHits[i], err = ref.hitsJSON()
				}
				if err != nil {
					errs[w] = fmt.Errorf("reference for %s: %w", r.pool[i].nexi, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finish verifies the written collection before and after a reopen;
// nothing writes after it, so the size on disk is final.
func (r *run) finish(ctx context.Context) error {
	r.verifyWrites(ctx, "after the last commit")
	if r.trace {
		r.noteFinalCounters()
		if err := r.writeProbe(); err != nil {
			return fmt.Errorf("write probe: %w", err)
		}
	}
	path := r.suts[0].path
	if err := r.suts[0].close(); err != nil {
		return err
	}
	re, err := openSUT(path, r.cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.suts[0] = re
	r.verifyWrites(ctx, "after reopen")
	return nil
}

func (r *run) closeAll() {
	for _, s := range r.suts {
		if s != nil {
			_ = s.close() // scratch databases; the directory is removed next
		}
	}
	r.suts = nil
}

// fingerprint identifies the generated inputs: every document and every
// query text.
func (r *run) fingerprint() string {
	var qs []string
	for _, q := range r.spec.grid {
		qs = append(qs, q.nexi)
	}
	for _, p := range r.pool {
		qs = append(qs, p.nexi+"#"+strconv.Itoa(p.k))
	}
	return fingerprint(r.corpora, qs)
}

// spaceAmp is bytes on disk over raw document bytes, all collections.
func (r *run) spaceAmp() float64 {
	var disk, raw int64
	for i, s := range r.suts {
		disk += s.diskBytes()
		raw += r.rawInitial[i]
	}
	return ratio(float64(disk), float64(raw+r.streamedRaw))
}

// resetPeakRSS starts the high-water mark of resident memory afresh, so
// that with -workload all each workload reports its own peak. Where the
// kernel does not allow it the mark stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// queryP50MS is the latency of the serve loop's median request. On the
// Zipf pool that is the median over all requests: most of them are
// result-cache hits, one tight cluster the median sits well inside. A
// round-robin mix has no such cluster — its requests cost from 50 µs to
// 10 ms, in a few plateaus — and the median over all of them is whichever
// request happens to rank in the middle on this seed's collection, a
// step of 10–30 % from its neighbours. There the metric is the geometric
// mean over the distinct requests of each request's median latency:
// every request weighs equally, as in the mix, and slowing any of them
// moves it.
func (r *run) queryP50MS() float64 {
	if r.spec.poolSize > 0 {
		return ms(percentile(r.serveLat, 0.50))
	}
	return geomean(perRequestMedians(r.serveLat, r.serveReq))
}

// endToEndMetrics are the numbers a user of the system sees.
func (r *run) endToEndMetrics() []metric {
	cells := len(r.cells) * r.spec.gridReps
	out := []metric{
		{"setup_s", median(r.setup).Seconds(), "s", len(r.setup)},
	}
	for _, m := range allMethods {
		out = append(out, metric{m + "_ms", r.methodMS(m), "ms", cells})
	}
	out = append(out,
		metric{"qps", ratio(float64(r.closedOK), r.closedWall.Seconds()), "1/s", r.closedOK},
		metric{"query_p50_ms", r.queryP50MS(), "ms", len(r.serveLat)},
		metric{"query_p99_ms", ms(percentile(r.serveLat, 0.99)), "ms", len(r.serveLat)},
		metric{"ingest_docs_per_s", ratio(float64(r.streamedDocs), r.writerWall.Seconds()), "1/s", r.streamedDocs},
		metric{"commit_p50_ms", ms(median(r.commits)), "ms", len(r.commits)},
		metric{"replan_p50_ms", ms(median(r.replans)), "ms", len(r.replans)},
		metric{"space_amp", r.spaceAmp(), "ratio", 1},
		metric{"peak_rss_mb", peakRSSMB(), "MB", 1},
	)
	return out
}
