package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// allMethods is the column order of the method grid.
var allMethods = []string{"era", "ta", "nra", "merge", "auto"}

// cell is one (query, k) pair of the grid with its measurements.
type cell struct {
	q    gridQuery
	k    int
	ref  answer                   // the ERA ranking every method must equal
	wall map[string]time.Duration // median wall per method
	// traced is the median wall of the repetitions that ran inside a
	// span (traced runs only).
	traced map[string]time.Duration
}

// run is one workload execution in progress.
type run struct {
	spec  spec
	seed  int64
	trace bool
	rec   *recorder // nil unless trace
	dir   string    // scratch directory, inside the checkout

	corpora []*corpusSet
	cfg     engineConfig
	suts    []*sut
	cells   []*cell
	pool    []request // serve requests (the pool, or the grid's pairs)
	refs    []answer  // reference answer of pool[i]
	refHits [][]byte  // its /search "hits" value (http workloads)
	hot     []workloadQuery
	budget  int64

	// attempted and failed count operations; the serve loop's clients
	// and the writer update them concurrently.
	attempted    atomic.Int64
	failMu       sync.Mutex
	failed       int
	firstFailure string

	// Raw samples the metrics are computed from.
	setup        []time.Duration
	serveLat     []time.Duration // per-request latency of the serve loop
	serveReq     []int           // the request (index into pool) of serveLat[i]
	serveLate    []time.Duration // open loop: how late each send was
	closedOK     int
	closedWall   time.Duration
	respBytes    int64 // bytes and count of /search responses
	respCount    int64
	afterServe   *counters // layer counters right after the serve loop
	rawInitial   []int64   // raw bytes of each collection's initial documents
	stagePerDoc  []time.Duration
	commits      []time.Duration
	replans      []time.Duration
	replanKept   []int
	writerWall   time.Duration
	streamedDocs int
	streamedRaw  int64
	droppedLists int
	postings     int64
	listBytes    int64
	matBytes     int64
	matTime      time.Duration

	layer map[string]float64 // per-layer metrics (traced runs)

	// Wall time of the run's own phases, for whoever tunes the counts.
	phases     map[string]float64
	phaseName  string
	phaseStart time.Time
}

// fail records one failed operation; the first message is kept.
func (r *run) fail(format string, args ...any) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (r *run) sutFor(q gridQuery) *sut { return r.suts[q.corpus] }

// --------------------------------------------------------------- checker

// checkGrid evaluates every cell once per method — which also warms
// every cache — and requires each ranking to equal the ERA ranking of
// its (query, k).
func (r *run) checkGrid(ctx context.Context) error {
	for _, c := range r.cells {
		s := r.sutFor(c.q)
		ref, err := s.query(ctx, c.q.nexi, c.k, "era", true)
		if err != nil {
			return fmt.Errorf("reference %s k=%d: %w", c.q.id, c.k, err)
		}
		c.ref = ref
		for _, m := range allMethods[1:] {
			r.attempted.Add(1)
			got, err := s.query(ctx, c.q.nexi, c.k, m, true)
			if err != nil {
				r.fail("%s k=%d %s: %v", c.q.id, c.k, m, err)
				continue
			}
			if !got.sameRanking(ref) {
				r.fail("%s k=%d %s (ran %s): ranking differs from ERA", c.q.id, c.k, m, got.method())
			}
			s.drainShadows()
		}
	}
	return nil
}

// --------------------------------------------------------------- grid

// runGrid times every cell: fixed repetitions in a fixed order. The
// repetitions are the outer loop, so a cell's samples are spread over the
// whole phase and a passing disturbance of the box costs many cells one
// sample each — which their medians drop — instead of one cell all of
// its samples. Shadow runs are drained after every auto query. In a
// traced run every second round runs inside spans, which gives the
// tracing overhead on identical calls.
func (r *run) runGrid(ctx context.Context) {
	type samples struct{ plain, traced []time.Duration }
	all := make([]map[string]*samples, len(r.cells))
	for i := range all {
		all[i] = make(map[string]*samples, len(allMethods))
		for _, m := range allMethods {
			all[i][m] = &samples{}
		}
	}
	for rep := 0; rep < r.spec.gridReps; rep++ {
		inSpan := r.rec != nil && rep%2 == 1
		for i, c := range r.cells {
			s := r.sutFor(c.q)
			for _, m := range allMethods {
				r.attempted.Add(1)
				id := -1
				if inSpan {
					id = r.rec.begin("engine", "query/"+m, -1, r.rec.newRequest())
				}
				t0 := time.Now()
				got, err := s.query(ctx, c.q.nexi, c.k, m, true)
				d := time.Since(t0)
				if inSpan {
					r.rec.end(id)
					all[i][m].traced = append(all[i][m].traced, d)
				} else {
					all[i][m].plain = append(all[i][m].plain, d)
				}
				if err != nil {
					r.fail("%s k=%d %s: %v", c.q.id, c.k, m, err)
					continue
				}
				if got.hits() != c.ref.hits() {
					r.fail("%s k=%d %s: %d hits, want %d", c.q.id, c.k, m, got.hits(), c.ref.hits())
				}
				if m == "auto" {
					s.drainShadows()
				}
			}
		}
	}
	for i, c := range r.cells {
		c.wall = make(map[string]time.Duration, len(allMethods))
		c.traced = make(map[string]time.Duration, len(allMethods))
		for _, m := range allMethods {
			c.wall[m] = median(all[i][m].plain)
			c.traced[m] = median(all[i][m].traced)
		}
	}
}

// methodMS is the geometric mean over the cells of a method's median
// wall, in ms.
func (r *run) methodMS(m string) float64 {
	v := make([]float64, 0, len(r.cells))
	for _, c := range r.cells {
		v = append(v, ms(c.wall[m]))
	}
	return geomean(v)
}

// --------------------------------------------------------------- serve

// client sends one request and reports whether the answer was right.
type client interface {
	do(ctx context.Context, i int) (ok bool, err error)
}

// engineClient calls QueryOptsCtx in-process with MethodAuto.
type engineClient struct {
	r *run
	// verify compares against the reference ranking; off while a writer
	// is changing the collection under the reader.
	verify bool
}

func (c engineClient) do(ctx context.Context, i int) (bool, error) {
	req := c.r.pool[i]
	got, err := c.r.suts[req.corpus].query(ctx, req.nexi, req.k, "auto", false)
	if err != nil {
		return false, err
	}
	if c.verify && !got.sameRanking(c.r.refs[i]) {
		return false, nil
	}
	return got.hits() <= req.k, nil
}

// httpClient fetches /search and compares the served hits with the
// reference bytes.
type httpClient struct {
	r    *run
	base string
	hc   *http.Client
}

var hitsKey = []byte(`"hits":`)

func (c httpClient) do(ctx context.Context, i int) (bool, error) {
	body, err := c.get(ctx, i)
	if err != nil {
		return false, err
	}
	at := bytes.Index(body, hitsKey)
	return at >= 0 && bytes.HasPrefix(body[at+len(hitsKey):], c.r.refHits[i]), nil
}

func (c httpClient) get(ctx context.Context, i int) ([]byte, error) {
	req := c.r.pool[i]
	u := c.base + "/search?q=" + url.QueryEscape(req.nexi) + "&k=" + strconv.Itoa(req.k)
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&c.r.respBytes, int64(len(body)))
	atomic.AddInt64(&c.r.respCount, 1)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// startHTTP serves the engine on a loopback listener; stop shuts the
// server down and waits for it.
func startHTTP(s *sut, clients int) (c httpClient, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return c, nil, err
	}
	srv := &http.Server{Handler: s.handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	c = httpClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr}}
	stop = func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
	return c, stop, nil
}

// serveResult is what one stage of the serve loop measured.
type serveResult struct {
	lat, late []time.Duration
	pos       []int // lat[i] answered seq[pos[i]]
	ok        int
	wall      time.Duration
}

// serveStage sends seq through `clients` goroutines. due == nil is a
// closed loop: each client sends its next request when the last one
// returned. Otherwise request i is sent at start+due[i] — or as soon
// after as a client is free — and timed from that instant. With stop
// non-nil the closed loop cycles through seq until stop closes (the
// reader beside a writer).
//
// The open loop's dispatcher spins on the clock: this sandbox's timers
// tick at 1 ms, so a sleeping generator would be up to a millisecond
// late on every request. The spin costs one of the two cores for the
// length of the stage; README states it with the other sandbox caveats.
func (r *run) serveStage(ctx context.Context, c client, layer string, seq []int, due []time.Duration, clients int, stop <-chan struct{}) serveResult {
	var res serveResult
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	var tickets chan int
	if due != nil {
		// Sized to the number of sends: the dispatcher never waits for a
		// client, a backlog waits in the channel.
		tickets = make(chan int, len(seq))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(tickets)
			for n := range seq {
				at := start.Add(due[n])
				if d := time.Until(at); d > 3*time.Millisecond {
					time.Sleep(d - 3*time.Millisecond)
				}
				for time.Now().Before(at) {
				}
				tickets <- n
			}
		}()
	}
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, late []time.Duration
			var pos []int
			ok := 0
			var failures []string
		loop:
			for {
				var n int
				from := time.Now()
				switch {
				case due != nil:
					var open bool
					if n, open = <-tickets; !open {
						break loop
					}
					from = start.Add(due[n])
					late = append(late, time.Since(from))
				case stop != nil:
					select {
					case <-stop:
						break loop
					default:
					}
					n = (int(next.Add(1)) - 1) % len(seq)
				default:
					if n = int(next.Add(1)) - 1; n >= len(seq) {
						break loop
					}
				}
				id := -1
				if r.rec != nil {
					id = r.rec.begin(layer, "serve", -1, r.rec.newRequest())
				}
				good, err := c.do(ctx, seq[n])
				d := time.Since(from)
				if id >= 0 {
					r.rec.end(id)
				}
				lat = append(lat, d)
				pos = append(pos, n)
				switch {
				case err != nil:
					failures = append(failures, fmt.Sprintf("serve request %d: %v", seq[n], err))
				case !good:
					failures = append(failures, fmt.Sprintf("serve request %d (%s k=%d): wrong answer", seq[n], r.pool[seq[n]].nexi, r.pool[seq[n]].k))
				default:
					ok++
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.pos = append(res.pos, pos...)
			res.late = append(res.late, late...)
			res.ok += ok
			r.attempted.Add(int64(len(lat)))
			for _, f := range failures {
				r.fail("%s", f)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// runServe is the serve phase: a closed-loop stage for throughput, and,
// where the workload pins a rate, an open-loop stage for latency.
func (r *run) runServe(ctx context.Context, c client, layer string, stop <-chan struct{}) {
	sp := r.spec
	rng := rand.New(rand.NewSource(r.seed ^ 0x5e7e))
	var seq []int
	if sp.poolSize > 0 {
		seq = zipfSequence(sp.closedRequests, len(r.pool), rng)
	} else {
		seq = roundRobin(sp.closedRequests, len(r.pool))
	}
	closed := r.serveStage(ctx, c, layer, seq, nil, sp.clients, stop)
	r.closedOK, r.closedWall = closed.ok, closed.wall
	r.serveLat, r.serveReq = closed.lat, make([]int, len(closed.pos))
	for i, p := range closed.pos {
		r.serveReq[i] = seq[p]
	}
	if sp.openRate > 0 {
		seq := zipfSequence(sp.openRequests, len(r.pool), rng)
		due := make([]time.Duration, len(seq))
		var at float64
		for i := range due {
			at += rng.ExpFloat64() / sp.openRate
			due[i] = time.Duration(at * float64(time.Second))
		}
		open := r.serveStage(ctx, c, layer, seq, due, sp.clients, nil)
		// Every position was sent once: put the latencies in due order.
		r.serveLat, r.serveReq, r.serveLate = make([]time.Duration, len(seq)), seq, open.late
		for i, p := range open.pos {
			r.serveLat[p] = open.lat[i]
		}
	}
}

// --------------------------------------------------------------- write

// runWrites is the write phase on corpora[0]: cycles of stage a batch,
// commit, re-plan the lists. The documents continue the generated
// collection; the very last one carries the planted term.
func (r *run) runWrites() error {
	sp := r.spec
	s, c := r.suts[0], r.corpora[0]
	ing := s.newIngestor()
	next := sp.corpora[0].docs
	planted, _ := plantedDoc(c.universe)
	for cy := 0; cy < sp.cycles; cy++ {
		start := time.Now()
		req := -1
		root := -1
		if r.rec != nil {
			req = r.rec.newRequest()
			root = r.rec.begin("loadgen", "write-cycle", -1, req)
		}
		id := r.span("ingest", "stage", root, req)
		t0 := time.Now()
		for i := 0; i < sp.batch; i++ {
			doc := c.doc(next)
			if cy == sp.cycles-1 && i == sp.batch-1 {
				doc = planted
			}
			next++
			r.attempted.Add(1)
			if err := ing.add(doc); err != nil {
				return fmt.Errorf("stage document %d: %w", next-1, err)
			}
			r.streamedRaw += int64(len(doc))
		}
		r.stagePerDoc = append(r.stagePerDoc, time.Since(t0)/time.Duration(sp.batch))
		r.endSpan(id)

		id = r.span("ingest", "commit", root, req)
		t0 = time.Now()
		r.attempted.Add(1)
		st, err := ing.commit()
		r.commits = append(r.commits, time.Since(t0))
		r.endSpan(id)
		if err != nil {
			return fmt.Errorf("commit %d: %w", cy, err)
		}
		if st.docs != sp.batch {
			r.fail("commit %d added %d documents, want %d", cy, st.docs, sp.batch)
		}
		r.streamedDocs += st.docs
		r.droppedLists += st.droppedListEntries
		r.postings += st.postings

		id = r.span("selfmanage", "replan", root, req)
		t0 = time.Now()
		r.attempted.Add(1)
		rp, err := s.selfManage(r.hot, r.budget)
		r.replans = append(r.replans, time.Since(t0))
		r.endSpan(id)
		if err != nil {
			return fmt.Errorf("re-plan %d: %w", cy, err)
		}
		r.replanKept = append(r.replanKept, rp.kept)
		r.listBytes = rp.diskUsed
		r.endSpan(root)
		r.writerWall += time.Since(start)
		time.Sleep(sp.writerThink)
	}
	return nil
}

// span and endSpan open and close a real span when tracing.
func (r *run) span(layer, name string, parent, req int) int {
	if r.rec == nil {
		return -1
	}
	return r.rec.begin(layer, name, parent, req)
}

func (r *run) endSpan(id int) {
	if id >= 0 {
		r.rec.end(id)
	}
}

// verifyWrites checks that every streamed document is there and the
// planted term is retrievable.
func (r *run) verifyWrites(ctx context.Context, when string) {
	s := r.suts[0]
	want := r.spec.corpora[0].docs + r.spec.cycles*r.spec.batch
	r.attempted.Add(1)
	if got, err := s.numDocs(); err != nil || got != want {
		r.fail("%s: %d documents (err %v), want %d", when, got, err, want)
	}
	_, q := plantedDoc(r.corpora[0].universe)
	r.attempted.Add(1)
	got, err := s.query(ctx, q, 10, "auto", true)
	if err != nil || got.hits() != 1 {
		r.fail("%s: planted term not retrievable (err %v)", when, err)
	}
}

// mallocs counts heap allocations of fn on this goroutine's process;
// meaningful only while nothing else runs.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
