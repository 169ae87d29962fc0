package main

// sut.go is the only file of the benchmark that names a symbol of the
// program under test. Everything else talks to the types below, so a
// later change to the program's surface is a change to this file alone.
// It deliberately stays on the entry points ROADMAP keeps: Create/Open,
// QueryOptsCtx, the *Ctx retrieval functions, NewIngestor, SelfManage,
// webapi.New and storage.NewDB/OpenBackend.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"trex"
	"trex/internal/corpus"
	"trex/internal/frontdoor"
	"trex/internal/index"
	"trex/internal/jsoncorpus"
	"trex/internal/nexi"
	"trex/internal/retrieval"
	"trex/internal/score"
	"trex/internal/storage"
	"trex/internal/translate"
	"trex/internal/webapi"
)

// fixedMethods are the strategies with their own retrieval function;
// "auto" lets the planner choose among them.
var fixedMethods = []string{"era", "ta", "nra", "merge"}

func engineMethod(name string) trex.Method {
	switch name {
	case "era":
		return trex.MethodERA
	case "ta":
		return trex.MethodTA
	case "nra":
		return trex.MethodNRA
	case "merge":
		return trex.MethodMerge
	default:
		return trex.MethodAuto
	}
}

// ---------------------------------------------------------------- corpus

// topic plants query words into a fraction of the generated documents.
type topic struct {
	Name        string
	Words       []string
	DocFraction float64
	Density     float64
}

// corpusSet is a generated document universe ("ieee", "wiki" or "json").
type corpusSet struct {
	universe string
	col      *corpus.Collection
}

// generateCorpus makes a collection of initial+tail documents from
// seed; the first `initial` are what the database is built from, the rest
// are streamed by the write phase. extra topics are planted on top of the
// style's own (XML universes only; the JSON generator's topics are fixed).
//
// The generator decides by a coin flip per document which topics it is
// about, so the number of documents a query matches wanders by 4-15 %
// from seed to seed, and every timing with it — ten times the
// run-to-run noise. The initial documents are therefore a stratified
// sample of the generator's stream: candidates are taken in order and
// kept while their signature (the set of the style's own topics they are
// about) is below its expected count; what is left over fills the
// remainder and the tail, in stream order.
func generateCorpus(universe string, initial, tail int, seed int64, extra []topic) (*corpusSet, error) {
	candidates := initial + tail + initial/2
	var col *corpus.Collection
	var base []corpus.Topic
	switch universe {
	case "json":
		col, base = corpus.GenerateJSON(candidates, seed), corpus.JSONTopics
	case "ieee", "wiki":
		cfg := corpus.Config{Style: corpus.StyleIEEE, Docs: candidates, Seed: seed}
		base = corpus.IEEETopics
		if universe == "wiki" {
			cfg.Style, base = corpus.StyleWiki, corpus.WikiTopics
		}
		if len(extra) > 0 {
			cfg.Topics = append([]corpus.Topic(nil), base...)
			for _, t := range extra {
				cfg.Topics = append(cfg.Topics, corpus.Topic{Name: t.Name, Words: t.Words, DocFraction: t.DocFraction, Density: t.Density})
			}
		}
		col = corpus.Generate(cfg)
	default:
		return nil, fmt.Errorf("unknown universe %q", universe)
	}

	signature := make([]uint32, len(col.Docs))
	for bit, t := range base {
		for _, id := range col.Relevance[t.Name] {
			signature[id] |= 1 << bit
		}
	}
	quota := make([]int, 1<<len(base))
	for sig := range quota {
		p := 1.0
		for bit, t := range base {
			if sig&(1<<bit) != 0 {
				p *= t.DocFraction
			} else {
				p *= 1 - t.DocFraction
			}
		}
		quota[sig] = int(math.Round(p * float64(initial)))
	}
	kept := make([]corpus.Document, 0, len(col.Docs))
	var rest []corpus.Document
	for i, d := range col.Docs {
		if sig := signature[i]; len(kept) < initial && quota[sig] > 0 {
			quota[sig]--
			kept = append(kept, d)
		} else {
			rest = append(rest, d)
		}
	}
	fill := initial - len(kept) // strata the stream could not fill
	kept = append(append(kept, rest[:fill]...), rest[fill:fill+tail]...)
	for i := range kept {
		kept[i].ID = i
	}
	col.Docs, col.Relevance = kept, nil
	return &corpusSet{universe, col}, nil
}

func (c *corpusSet) doc(i int) []byte { return c.col.Docs[i].Data }
func (c *corpusSet) hashInto(h hash.Hash) {
	for _, d := range c.col.Docs {
		h.Write(d.Data)
		h.Write([]byte{0})
	}
}

// rawBytes is the size of documents [lo, hi).
func (c *corpusSet) rawBytes(lo, hi int) int64 {
	var n int64
	for _, d := range c.col.Docs[lo:hi] {
		n += int64(len(d.Data))
	}
	return n
}

// prefix is the collection of the first n documents.
func (c *corpusSet) prefix(n int) *corpus.Collection {
	p := *c.col
	p.Docs = c.col.Docs[:n]
	return &p
}

// jsonPathToNEXI is the jsoncorpus layer's query front end.
func jsonPathToNEXI(q string) (string, error) { return jsoncorpus.JSONPathToNEXI(q) }

// ---------------------------------------------------------------- engine

// engineConfig is what a workload varies about the engine. Everything
// else stays at the program's defaults (telemetry and planner on),
// except SegmentLists, which is always on.
type engineConfig struct {
	cachePages int
	// frontDoor enables admission control and the result cache.
	frontDoor    bool
	maxInflight  int
	cacheEntries int
}

func (c engineConfig) options() *trex.Options {
	o := &trex.Options{SegmentLists: true, CachePages: c.cachePages}
	if c.frontDoor {
		o.FrontDoor = &trex.FrontDoorOptions{MaxInflight: c.maxInflight, CacheEntries: c.cacheEntries}
	}
	return o
}

// sut is one opened engine.
type sut struct {
	eng  *trex.Engine
	path string // "" when built on a caller's backend
}

func createSUT(path string, c *corpusSet, docs int, cfg engineConfig) (*sut, error) {
	eng, err := trex.Create(path, c.prefix(docs), cfg.options())
	if err != nil {
		return nil, err
	}
	return &sut{eng: eng, path: path}, nil
}

// createSUTOn builds the engine over a caller-supplied page backend
// (the timing decorator); its segments then live in memory.
func createSUTOn(be storage.Backend, c *corpusSet, docs int, cfg engineConfig) (*sut, error) {
	db, err := storage.NewDB(be, &storage.Options{CachePages: cfg.cachePages})
	if err != nil {
		return nil, err
	}
	eng, err := trex.CreateOnDB(db, c.prefix(docs), cfg.options())
	if err != nil {
		db.Close()
		return nil, err
	}
	return &sut{eng: eng}, nil
}

func openSUT(path string, cfg engineConfig) (*sut, error) {
	eng, err := trex.Open(path, cfg.options())
	if err != nil {
		return nil, err
	}
	return &sut{eng: eng, path: path}, nil
}

func (s *sut) close() error { return s.eng.Close() }

// diskBytes is the database file plus its segment directory.
func (s *sut) diskBytes() int64 {
	var n int64
	if fi, err := os.Stat(s.path); err == nil {
		n += fi.Size()
	}
	entries, _ := os.ReadDir(s.path + ".seg")
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func (s *sut) numDocs() (int, error) {
	st, err := s.eng.Store().CollectionStats()
	return st.NumDocs, err
}

// materialize builds the RPLs and ERPLs of one query; it returns the
// bytes written.
func (s *sut) materialize(nexiSrc string) (int64, error) {
	ms, err := s.eng.Materialize(nexiSrc, index.KindRPL, index.KindERPL)
	if err != nil {
		return 0, err
	}
	return ms.RPLBytes + ms.ERPLBytes, nil
}

// workloadQuery is one entry of a self-management workload.
type workloadQuery struct {
	nexi string
	freq float64
	k    int
}

// replanResult is what one SelfManage run decided.
type replanResult struct {
	diskUsed int64
	kept     int
}

// selfManage runs the greedy self-management cycle under budget bytes.
func (s *sut) selfManage(qs []workloadQuery, budget int64) (replanResult, error) {
	wl := make([]trex.WorkloadQuery, len(qs))
	for i, q := range qs {
		wl[i] = trex.WorkloadQuery{NEXI: q.nexi, Freq: q.freq, K: q.k}
	}
	rep, err := s.eng.SelfManage(wl, budget, trex.SolverGreedy)
	if err != nil {
		return replanResult{}, err
	}
	return replanResult{diskUsed: rep.Plan.DiskUsed, kept: len(rep.KeptLists)}, nil
}

// drainShadows waits for the planner's background shadow runs, so they
// do not bleed into the next timed call.
func (s *sut) drainShadows() { s.eng.DrainShadows() }

func (s *sut) handler() http.Handler { return webapi.New(s.eng, false) }

// answer is one evaluated query; it keeps the engine's result so that
// nothing is copied inside a timed call.
type answer struct{ res *trex.Result }

func (s *sut) query(ctx context.Context, nexiSrc string, k int, method string, noCache bool) (answer, error) {
	res, err := s.eng.QueryOptsCtx(ctx, nexiSrc, trex.QueryOptions{K: k, Method: engineMethod(method), NoCache: noCache})
	return answer{res}, err
}

func (a answer) method() string { return a.res.Method.String() }
func (a answer) hits() int      { return len(a.res.Answers) }

// sameRanking reports whether two answers rank the same elements with
// bit-identical scores in the same order.
func (a answer) sameRanking(b answer) bool {
	if len(a.res.Answers) != len(b.res.Answers) {
		return false
	}
	for i, x := range a.res.Answers {
		y := b.res.Answers[i]
		if x.Doc != y.Doc || x.Start != y.Start || x.End != y.End || x.SID != y.SID ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			return false
		}
	}
	return true
}

// hitsJSON is the "hits" value /search serves for this ranking.
func (a answer) hitsJSON() ([]byte, error) {
	if len(a.res.Answers) == 0 {
		return []byte("null"), nil
	}
	hits := make([]webapi.SearchHit, len(a.res.Answers))
	for i, x := range a.res.Answers {
		hits[i] = webapi.SearchHit{Rank: i + 1, Score: x.Score, Doc: x.Doc, Start: x.Start, End: x.End, Path: x.Path}
	}
	return json.Marshal(hits)
}

// retrievalStats are the retrieval layer's own public outputs.
type retrievalStats struct {
	pageReads, bytesRead           uint64
	sortedAccesses, randomAccesses int
	heapOps, blockSkips            int
	depthFraction                  float64
	thresholdStop                  bool
}

func statsOf(st *retrieval.Stats) retrievalStats {
	if st == nil {
		return retrievalStats{}
	}
	return retrievalStats{
		pageReads: st.PageReads, bytesRead: st.BytesRead,
		sortedAccesses: st.SortedAccesses, randomAccesses: st.RandomAccesses,
		heapOps: st.HeapOps, blockSkips: st.BlockSkips,
		depthFraction: st.DepthFraction(), thresholdStop: st.ThresholdStop,
	}
}

func (a answer) stats() retrievalStats { return statsOf(a.res.Stats) }

// translateCached reports, from the engine's own trace, whether the
// query's translation came from the engine's translation cache.
func (a answer) translateCached() bool {
	if a.res.Trace == nil {
		return false
	}
	sp := a.res.Trace.FindSpan("translate")
	return sp != nil && sp.Cached
}

// ------------------------------------------------ layers below the engine

// retrievalPlan is a translated query flattened the way the engine
// hands it to a retrieval function.
type retrievalPlan struct {
	sids  []uint32
	terms []string
	sc    *score.Scorer
	// pushK reports whether k may be pushed into the strategy (a single
	// target clause without negated terms); otherwise every match is
	// retrieved.
	pushK bool
}

// parseAndTranslate calls the translate layer's two public steps and
// returns their separate durations.
func (s *sut) parseAndTranslate(nexiSrc string) (plan *retrievalPlan, parse, trans time.Duration, err error) {
	t0 := time.Now()
	q, err := nexi.Parse(nexiSrc)
	parse = time.Since(t0)
	if err != nil {
		return nil, parse, 0, err
	}
	t0 = time.Now()
	tr, err := translate.Translate(q, s.eng.Summary(), translate.ModeVague)
	trans = time.Since(t0)
	if err != nil {
		return nil, parse, trans, err
	}
	seen := make(map[uint32]bool)
	p := &retrievalPlan{}
	add := func(list []uint32) {
		for _, sid := range list {
			if !seen[sid] {
				seen[sid] = true
				p.sids = append(p.sids, sid)
			}
		}
	}
	negs := 0
	for i := range tr.Clauses {
		add(tr.Clauses[i].SIDs)
		negs += len(tr.Clauses[i].NegativeTerms())
	}
	add(tr.TargetSIDs)
	sort.Slice(p.sids, func(i, j int) bool { return p.sids[i] < p.sids[j] })
	p.terms = tr.DistinctTerms()
	p.pushK = len(tr.Clauses) == 1 && tr.Clauses[0].IsTarget && negs == 0
	return p, parse, trans, nil
}

// store is an index store the retrieval functions and probes read: the
// engine's own, or a side store over the timing backend.
type store struct{ st *index.Store }

func (s *sut) store() store { return store{s.eng.Store()} }

// retrieve calls one retrieval function directly, as the engine would.
func (s store) retrieve(ctx context.Context, method string, p *retrievalPlan, k int) (retrievalStats, error) {
	if p.sc == nil {
		sc, err := s.st.NewScorer(p.terms)
		if err != nil {
			return retrievalStats{}, err
		}
		p.sc = sc
	}
	if !p.pushK {
		k = 0
	}
	kTA := k
	if kTA <= 0 {
		kTA = 1 << 30
	}
	var st *retrieval.Stats
	var err error
	switch method {
	case "era":
		_, st, err = retrieval.ExhaustiveTopKCtx(ctx, s.st, p.sids, p.terms, p.sc, k)
	case "ta":
		_, st, err = retrieval.TACtx(ctx, s.st, p.sids, p.terms, p.sc, kTA)
	case "nra":
		_, st, err = retrieval.NRACtx(ctx, s.st, p.sids, p.terms, kTA)
	case "merge":
		_, st, err = retrieval.MergeCtx(ctx, s.st, p.sids, p.terms, k)
	default:
		err = fmt.Errorf("no retrieval function for method %q", method)
	}
	return statsOf(st), err
}

// ---------------------------------------------------------------- ingest

type ingestor struct{ ing *trex.Ingestor }

func (s *sut) newIngestor() ingestor    { return ingestor{s.eng.NewIngestor()} }
func (i ingestor) add(doc []byte) error { return i.ing.Add(doc) }

// commitStats is the public AddStats of one commit.
type commitStats struct {
	docs, droppedListEntries int
	postings                 int64
}

func (i ingestor) commit() (commitStats, error) {
	st, err := i.ing.Commit()
	if err != nil {
		return commitStats{}, err
	}
	return commitStats{docs: st.Docs, droppedListEntries: st.DroppedListEntries, postings: st.Postings}, nil
}

// -------------------------------------------------------------- counters

// counters snapshots every public counter the layers export.
type counters struct {
	pagesRead, pagesWritten, cacheHits, cacheMisses uint64
	flushes, journalPages                           uint64
	segRows, segBytes, segSwaps, segRetired         uint64
	segMapped                                       int64
	fdHits, fdMisses, fdEvictions, fdInvalidations  uint64
	fdShed, fdTimedOut                              uint64
	planned                                         map[string]uint64
	planFallbacks                                   uint64
}

func (s *sut) counters() counters {
	st := s.eng.DB().Stats()
	c := counters{
		pagesRead: st.PagesRead, pagesWritten: st.PagesWritten,
		cacheHits: st.CacheHits, cacheMisses: st.CacheMisses,
		flushes: st.Flushes, journalPages: st.JournalPages,
	}
	if seg := s.eng.Store().Segments(); seg != nil {
		c.segRows, c.segBytes = seg.RowsRead(), seg.BytesRead()
		c.segSwaps, c.segRetired, c.segMapped = seg.Swaps(), seg.GensRetired(), seg.MappedBytes()
	}
	if rc := s.eng.ResultCache(); rc != nil {
		c.fdHits, c.fdMisses = rc.Hits(), rc.Misses()
		c.fdEvictions, c.fdInvalidations = rc.Evictions(), rc.Invalidations()
	}
	if adm := s.eng.Admission(); adm != nil {
		c.fdShed, c.fdTimedOut = adm.Shed(), adm.TimedOut()
	}
	ps := s.eng.PlannerStatus()
	c.planned, c.planFallbacks = ps.Decisions, ps.Fallbacks
	return c
}

// ------------------------------------------------------- timing backend

// timedBackend is a storage.Backend over one file that times every
// call, so the traced run can report device time apart from pager time.
type timedBackend struct {
	f                       *os.File
	readNS, writeNS, syncNS atomic.Int64
	reads, writes, syncs    atomic.Int64
}

func openTimedBackend(path string) (*timedBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &timedBackend{f: f}, nil
}

func (b *timedBackend) ReadPage(id uint32, buf []byte) error {
	t0 := time.Now()
	_, err := b.f.ReadAt(buf, int64(id)*storage.PageSize)
	b.readNS.Add(int64(time.Since(t0)))
	b.reads.Add(1)
	return err
}

func (b *timedBackend) WritePage(id uint32, buf []byte) error {
	t0 := time.Now()
	_, err := b.f.WriteAt(buf, int64(id)*storage.PageSize)
	b.writeNS.Add(int64(time.Since(t0)))
	b.writes.Add(1)
	return err
}

func (b *timedBackend) Sync() error {
	t0 := time.Now()
	err := b.f.Sync()
	b.syncNS.Add(int64(time.Since(t0)))
	b.syncs.Add(1)
	return err
}

func (b *timedBackend) Close() error { return b.f.Close() }

// sideStore opens the engine's database file a second time, read-only
// in effect, through the timing backend with its own page cache of
// cachePages. Its lists are read from the pager trees (it has no
// segment), its base tables exactly as the engine reads them.
type sideStore struct {
	store
	db *storage.DB
	be *timedBackend
}

func openSideStore(path string, cachePages int) (*sideStore, error) {
	be, err := openTimedBackend(path)
	if err != nil {
		return nil, err
	}
	db, err := storage.OpenBackend(be, &storage.Options{CachePages: cachePages})
	if err != nil {
		be.Close()
		return nil, err
	}
	st, err := index.Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &sideStore{store: store{st}, db: db, be: be}, nil
}

func (s *sideStore) close() error { return s.db.Close() }

// ---------------------------------------------------------- micro-probes

// probeResult is ns per call of one public iterator or reader function.
type probeResult map[string]float64

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// probeIndex times the index layer's iterators for one (term, sid) of a
// materialized query, at most limit steps each.
func (s store) probeIndex(p *retrievalPlan, limit int) (probeResult, error) {
	out := probeResult{}
	if len(p.terms) == 0 || len(p.sids) == 0 {
		return out, nil
	}
	term := p.terms[0]

	rpl := index.NewRPLIterator(s.st, term)
	var elems []index.Element
	n := 0
	t0 := time.Now()
	for n < limit {
		e, ok, err := rpl.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n++
		if len(elems) < 256 {
			elems = append(elems, index.Element{SID: e.SID, Doc: e.Doc, End: e.End, Length: e.Length})
		}
	}
	out["index.rpl_next_ns"] = perCall(time.Since(t0), n)

	rpl = index.NewRPLIterator(s.st, term)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := rpl.BlockMaxScore(); err != nil {
			return nil, err
		}
	}
	out["index.block_max_ns"] = perCall(time.Since(t0), n)

	// The ERPL of the sid the RPL's best entry lives in is never empty.
	sid := p.sids[0]
	if len(elems) > 0 {
		sid = elems[0].SID
	}
	erpl := index.NewERPLIterator(s.st, term, sid)
	var positions []index.Pos
	n = 0
	t0 = time.Now()
	for n < limit {
		e, ok, err := erpl.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n++
		if n%16 == 0 {
			positions = append(positions, index.Pos{Doc: e.Doc, Off: e.End})
		}
	}
	out["index.erpl_next_ns"] = perCall(time.Since(t0), n)

	erpl = index.NewERPLIterator(s.st, term, sid)
	t0 = time.Now()
	for _, pos := range positions {
		if _, err := erpl.SkipTo(pos.Doc, pos.Off); err != nil {
			return nil, err
		}
	}
	out["index.erpl_skipto_ns"] = perCall(time.Since(t0), len(positions))

	t0 = time.Now()
	for _, e := range elems {
		if _, err := index.TFInSpan(s.st, term, e); err != nil {
			return nil, err
		}
	}
	out["index.tf_in_span_ns"] = perCall(time.Since(t0), len(elems))

	post := index.NewPostingIterator(s.st, term)
	n = 0
	t0 = time.Now()
	for n < limit {
		pos, err := post.NextPosition()
		if err != nil {
			return nil, err
		}
		if pos.IsMax() {
			break
		}
		n++
	}
	out["index.posting_next_ns"] = perCall(time.Since(t0), n)

	el := index.NewElementIterator(s.st, sid)
	e, err := el.FirstElement()
	n = 0
	t0 = time.Now()
	for err == nil && !e.IsDummy() && n < limit {
		e, err = el.NextElementAfter(e.EndPos())
		n++
	}
	if err != nil {
		return nil, err
	}
	out["index.element_next_ns"] = perCall(time.Since(t0), n)
	return out, nil
}

// probeSegment times the mapped list reader: a cursor scan over the
// first rows of the RPL table, then a point get of every key seen.
func (s *sut) probeSegment(limit int) probeResult {
	out := probeResult{}
	seg := s.eng.Store().Segments()
	if seg == nil {
		return out
	}
	seg.Pin()
	defer seg.Unpin()
	cur := seg.ListCursor(index.TableRPLs)
	if cur == nil {
		return out
	}
	var keys [][]byte
	t0 := time.Now()
	ok, _ := cur.First()
	for ; ok && len(keys) < limit; ok, _ = cur.Next() {
		keys = append(keys, cur.Key())
	}
	out["segment.scan_ns_row"] = perCall(time.Since(t0), len(keys))
	t0 = time.Now()
	for _, k := range keys {
		seg.Get(index.TableRPLs, k)
	}
	out["segment.get_ns"] = perCall(time.Since(t0), len(keys))
	return out
}

// probePager times the pager's B+tree on the posting table: a cursor
// scan, then a seek and a point get of every key seen.
func (s store) probePager(limit int) (probeResult, error) {
	out := probeResult{}
	tree := s.st.Postings
	cur := tree.Cursor()
	var keys [][]byte
	t0 := time.Now()
	ok, err := cur.First()
	for ; ok && len(keys) < limit; ok, err = cur.Next() {
		keys = append(keys, append([]byte(nil), cur.Key()...))
	}
	if err != nil {
		return nil, err
	}
	out["storage.next_ns"] = perCall(time.Since(t0), len(keys))
	// Visit the keys in a scattered order, as random accesses do.
	order := make([]int, len(keys))
	for i := range order {
		order[i] = (i * 7919) % len(keys)
	}
	t0 = time.Now()
	for _, i := range order {
		if _, err := cur.Seek(keys[i]); err != nil {
			return nil, err
		}
	}
	out["storage.seek_ns"] = perCall(time.Since(t0), len(keys))
	t0 = time.Now()
	for _, i := range order {
		if _, err := tree.Get(keys[i]); err != nil {
			return nil, err
		}
	}
	out["storage.get_ns"] = perCall(time.Since(t0), len(keys))
	return out, nil
}

// probeResultCache times the front door's cache on a private instance
// of the same capacity, so the engine's own hit counters stay clean.
func probeResultCache(entries, gets int) float64 {
	c := frontdoor.NewCache(entries)
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("10\x000\x000\x000\x000\x00//article//sec[about(., probe%04d)]", i)
		c.Put(keys[i], 1, i)
	}
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		c.Get(keys[(i*7919)%entries], 1)
	}
	return perCall(time.Since(t0), gets)
}

// fingerprint hashes the generated inputs of a run.
func fingerprint(corpora []*corpusSet, queries []string) string {
	h := sha256.New()
	for _, c := range corpora {
		c.hashInto(h)
	}
	for _, q := range queries {
		h.Write([]byte(q))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// scratchPath names a database inside dir.
func scratchPath(dir, name string) string { return filepath.Join(dir, name+".trexdb") }
