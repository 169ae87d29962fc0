// Package trex is an XML retrieval system with self-managing top-k
// (summary, keyword) indexes — a from-scratch reproduction of the TReX
// system (Consens, Gu, Kanza, Rizzolo; ICDE 2007).
//
// TReX evaluates vague NEXI queries (keyword search plus structural
// constraints) over XML collections. It translates each query into sets
// of summary-node identifiers (sids) and terms using a structural summary,
// then retrieves ranked elements with one of three strategies:
//
//   - ERA: exhaustive scan over the always-present Elements and
//     PostingLists tables.
//   - TA: the threshold algorithm over redundant score-ordered RPLs.
//   - Merge: a positional merge over redundant position-ordered ERPLs.
//
// Because no strategy dominates, the engine self-manages which redundant
// lists to materialize for a given workload under a disk budget
// (SelfManage), using either an exact boolean-LP solver or a greedy
// 2-approximation.
//
// Quick start:
//
//	col := corpus.GenerateIEEE(200, 42)
//	eng, err := trex.CreateMemory(col, nil)
//	res, err := eng.Query(`//article[about(., xml)]//sec[about(., query)]`,
//	    10, trex.MethodAuto)
package trex

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trex/internal/autopilot"
	"trex/internal/corpus"
	"trex/internal/frontdoor"
	"trex/internal/index"
	"trex/internal/score"
	"trex/internal/segment"
	"trex/internal/storage"
	"trex/internal/summary"
)

// Options configures collection building.
type Options struct {
	// SummaryKind defaults to the alias incoming summary the paper uses.
	SummaryKind summary.Kind
	// K is the suffix length when SummaryKind is summary.KindAK.
	K int
	// Aliases overrides the collection's alias mapping (nil keeps it).
	Aliases map[string]string
	// CachePages bounds the storage page cache (0 = default).
	CachePages int
	// CacheShards splits the storage page cache into independently
	// locked shards so concurrent readers on different pages never
	// contend (0 = default, 16 shards; rounded up to a power of two).
	CacheShards int
	// StoreDocuments also persists raw documents into the DB (needed only
	// if you want Engine.Document to work after reopening).
	StoreDocuments bool
	// Stopwords are excluded from indexing and from queries; the list is
	// persisted so build and query time always agree. Use
	// index.DefaultStopwords for a standard English list; nil keeps all
	// terms.
	Stopwords []string
	// Scoring selects the relevance formula (default BM25; also
	// score.ModelLMDirichlet). Persisted, since materialized list scores
	// embed it.
	Scoring score.Model
	// Autopilot, when non-nil, starts the online self-management daemon
	// on the opened engine (see Engine.StartAutopilot): the query path
	// feeds a workload tracker and a background controller keeps the
	// materialized list set tuned to observed traffic under the disk
	// budget. Engine.Close stops it.
	Autopilot *AutopilotOptions
	// Telemetry configures the observability layer (metrics registry,
	// per-query trace spans, slow-query log). Nil enables it with
	// defaults; see TelemetryOptions.Disabled to opt out.
	Telemetry *TelemetryOptions
	// SegmentLists serves committed RPL/ERPL reads from an immutable
	// memory-mapped segment file (rebuilt at each maintenance commit)
	// instead of the pager's B+trees: decode-free zero-copy cursors for
	// TA/NRA/Merge, at the cost of rewriting the segment on commit. The
	// choice is persisted, so Open re-attaches automatically; for a
	// database at path the segment lives in the path+".seg" directory.
	// Writes keep the pager path; uncommitted list changes are served
	// from the trees until the next commit.
	SegmentLists bool
	// FrontDoor configures overload protection for the query path:
	// bounded admission with load shedding, a default per-query
	// deadline, and an epoch-invalidated result cache. Nil disables all
	// of it; see FrontDoorOptions.
	FrontDoor *FrontDoorOptions
	// Planner configures the online query planner that resolves
	// MethodAuto through a continuously calibrated cost model. Nil
	// uses the defaults.
	Planner *PlannerOptions
	// SharedSummary, when non-nil, is used instead of building a
	// structural summary from the collection. The distributed tier
	// (internal/cluster) builds ONE summary over the full corpus and
	// hands each shard a private deep copy, so every shard assigns the
	// same sid to the same label path and a query translates to the
	// same (sids, terms) everywhere. The engine takes ownership of the
	// value: callers must not share one *Summary between engines
	// (AppendDocuments mutates it in place).
	SharedSummary *summary.Summary
}

// Engine is an opened TReX collection: storage, index tables and the
// structural summary.
type Engine struct {
	db    *storage.DB
	store *index.Store
	sum   *summary.Summary
	docs  *corpus.DocStore
	// format is the document universe of the stored collection (XML or
	// JSON), persisted in the index meta. Set once at build/Open, then
	// read-only.
	format corpus.Format
	// ingestStagedDocs/Bytes aggregate what live Ingestors hold staged
	// but not yet committed; exported as gauges by telemetry.
	ingestStagedDocs  atomic.Int64
	ingestStagedBytes atomic.Int64
	// inflight tracks background shadow retrievals (see launchShadow) so
	// writers and Close do not pull the storage out from under one.
	inflight sync.WaitGroup
	// trCache memoizes query translations with LRU eviction (guarded by
	// trMu; invalidated when the summary changes). trLRU's front is the
	// most recently used entry; element values are *trCacheEntry.
	trMu    sync.Mutex
	trCache map[string]*list.Element
	trLRU   *list.List
	// rw coordinates readers and writers at the engine level: queries
	// and other read-only operations hold it shared, while maintenance
	// steps (materializing a list, dropping a list, appending documents)
	// hold it exclusively. The B+tree mutates nodes in place, so a write
	// step must exclude all readers; holding the exclusive lock only per
	// step keeps maintenance from starving foreground queries.
	rw sync.RWMutex
	// maintMu serializes whole maintenance operations (AddDocuments,
	// Materialize, SelfManage, autopilot runs, Backup): each is a
	// sequence of rw-locked steps that must not interleave with another
	// operation's sequence. Lock order is always maintMu before rw.
	maintMu sync.Mutex
	// pilot is the running autopilot controller, nil when disabled.
	// Atomic so the query hot path can feed it without a lock; pilotMu
	// serializes Start/Stop, and pilotCancel stops the loop.
	pilot       atomic.Pointer[autopilot.Controller]
	pilotMu     sync.Mutex
	pilotCancel context.CancelFunc
	pilotOpts   AutopilotOptions
	// met is the observability layer (metrics registry, slow-query log,
	// I/O-attribution guard); nil when TelemetryOptions.Disabled. Set
	// once before the engine is shared, then read-only.
	met *engineMetrics
	// Front door (see FrontDoorOptions): adm gates query concurrency
	// and rcache memoizes rankings; both nil when disabled. fd keeps
	// the configured options (for the default deadline).
	adm    *frontdoor.Admission
	rcache *frontdoor.Cache
	fd     FrontDoorOptions
	// pln is the online query planner (MethodAuto resolution, cost
	// model calibration, shadow sampling). Set once before the engine
	// is shared, then read-only.
	pln *plannerState
	// writeEpoch is the result cache's invalidation key: seeded from
	// the persisted list epoch at open, bumped by beginWrite under the
	// exclusive lock — so every maintenance step (even one of many
	// inside a single operation) moves the engine past all cached
	// rankings. Cache fills read it under the shared lock, where it
	// cannot move.
	writeEpoch atomic.Uint64
}

// beginRead / endRead bracket a read-only operation (queries,
// translation, explain, snippets). Any number may run concurrently. A
// reader also pins the segment store (when attached) so the generation
// it started on stays mapped until it is done, even if a commit flips
// the manifest mid-query.
func (e *Engine) beginRead() {
	e.rw.RLock()
	e.store.PinLists()
}

func (e *Engine) endRead() {
	e.store.UnpinLists()
	e.rw.RUnlock()
}

// beginWrite / endWrite bracket one exclusive maintenance step. After
// the exclusive lock is held no new reader can start, but a shadow run
// launched by an earlier query may still be reading storage, so writers
// also drain inflight before mutating.
func (e *Engine) beginWrite() {
	if m := e.met; m != nil {
		t0 := time.Now()
		e.rw.Lock()
		m.writeLockWait.Observe(time.Since(t0).Seconds())
		// Any exclusive step may dirty the shared I/O counters: taint
		// overlapping query measurement windows (see telemetry.Guard).
		m.guard.NoteWrite()
	} else {
		e.rw.Lock()
	}
	// Every exclusive step may change what queries would return: move
	// the write epoch past every cached ranking. Bumping per step (not
	// per operation) matters — multi-step maintenance releases rw
	// between steps, and a cache fill in such a window must die at the
	// next step, not survive until the operation commits.
	e.writeEpoch.Add(1)
	e.inflight.Wait()
}
func (e *Engine) endWrite() { e.rw.Unlock() }

// metaSummaryChunk prefixes the serialized summary chunks in IndexMeta.
const metaSummaryPrefix = "summary-chunk-"

// Create builds a new on-disk TReX database at path from the collection.
func Create(path string, col *corpus.Collection, opts *Options) (*Engine, error) {
	if opts == nil {
		opts = &Options{}
	}
	db, err := storage.Open(path, &storage.Options{CachePages: opts.CachePages, CacheShards: opts.CacheShards})
	if err != nil {
		return nil, err
	}
	eng, err := build(db, col, opts)
	if err != nil {
		db.Close()
		return nil, err
	}
	if opts.SegmentLists {
		if err := eng.enableSegments(segmentDir(path)); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return nil, err
	}
	if err := eng.startConfiguredAutopilot(opts); err != nil {
		db.Close()
		return nil, err
	}
	return eng, nil
}

// CreateOnDB builds a TReX collection over a caller-supplied storage
// database (e.g. one opened over an instrumented storage.Backend for
// fault testing). The engine takes ownership: Close closes db. On error
// the db is left open for the caller to inspect.
func CreateOnDB(db *storage.DB, col *corpus.Collection, opts *Options) (*Engine, error) {
	if opts == nil {
		opts = &Options{}
	}
	eng, err := build(db, col, opts)
	if err != nil {
		return nil, err
	}
	if opts.SegmentLists {
		if err := eng.enableSegments(""); err != nil {
			return nil, err
		}
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	if err := eng.startConfiguredAutopilot(opts); err != nil {
		return nil, err
	}
	return eng, nil
}

// CreateMemory builds an in-memory TReX database from the collection.
func CreateMemory(col *corpus.Collection, opts *Options) (*Engine, error) {
	if opts == nil {
		opts = &Options{}
	}
	db := storage.OpenMemory()
	eng, err := build(db, col, opts)
	if err != nil {
		db.Close()
		return nil, err
	}
	if opts.SegmentLists {
		if err := eng.enableSegments(""); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := eng.startConfiguredAutopilot(opts); err != nil {
		db.Close()
		return nil, err
	}
	return eng, nil
}

// segmentDir is where a database at path keeps its segment generations.
func segmentDir(path string) string { return path + ".seg" }

// enableSegments attaches the mmap'd segment list backend: persist the
// marker (so Open re-attaches), open the generation store (dir == "" for
// the in-memory mode) and hand it to the index layer, which serves the
// existing generation or rebuilds one from the trees. Registers the
// trex_segment_* metric family when telemetry is up.
func (e *Engine) enableSegments(dir string) error {
	if e.store.Segments() != nil {
		return nil
	}
	if err := e.store.PutListBackend(index.ListBackendSegment); err != nil {
		return err
	}
	var ss *segment.Store
	if dir == "" {
		ss = segment.OpenMemory()
	} else {
		var err error
		if ss, err = segment.Open(dir); err != nil {
			return err
		}
	}
	if err := e.store.AttachSegments(ss); err != nil {
		ss.Close()
		return err
	}
	if m := e.met; m != nil {
		registerSegmentMetrics(m.reg, ss)
	}
	return nil
}

// startConfiguredAutopilot starts the daemon when Options requested it.
func (e *Engine) startConfiguredAutopilot(opts *Options) error {
	if opts.Autopilot == nil {
		return nil
	}
	return e.StartAutopilot(context.Background(), *opts.Autopilot)
}

func build(db *storage.DB, col *corpus.Collection, opts *Options) (*Engine, error) {
	aliases := col.Aliases
	if opts.Aliases != nil {
		aliases = opts.Aliases
	}
	sum := opts.SharedSummary
	if sum == nil {
		var err error
		sum, err = summary.Build(col, summary.Options{
			Kind:    opts.SummaryKind,
			Aliases: aliases,
			K:       opts.K,
		})
		if err != nil {
			return nil, err
		}
	}
	if !sum.SafeForRetrieval() {
		return nil, fmt.Errorf("trex: summary kind %v is unsafe for retrieval over this collection (an extent contains ancestor/descendant pairs); use the incoming summary", opts.SummaryKind)
	}
	store, err := index.Open(db)
	if err != nil {
		return nil, err
	}
	if len(opts.Stopwords) > 0 {
		if err := store.PutStopwords(opts.Stopwords); err != nil {
			return nil, err
		}
	}
	if opts.Scoring != score.ModelBM25 {
		if err := store.PutScoringModel(opts.Scoring); err != nil {
			return nil, err
		}
	}
	if err := store.PutCorpusFormat(col.Format); err != nil {
		return nil, err
	}
	if _, err := index.BuildBase(store, col, sum); err != nil {
		return nil, err
	}
	eng := &Engine{db: db, store: store, sum: sum, format: col.Format}
	eng.initTelemetry(opts.Telemetry)
	eng.initPlanner(opts.Planner)
	if err := eng.initFrontDoor(opts.FrontDoor); err != nil {
		return nil, err
	}
	if err := eng.saveSummary(); err != nil {
		return nil, err
	}
	if opts.StoreDocuments {
		ds, err := corpus.OpenDocStore(db)
		if err != nil {
			return nil, err
		}
		if err := ds.PutCollection(col); err != nil {
			return nil, err
		}
		eng.docs = ds
	}
	return eng, nil
}

// Open reopens an existing TReX database created by Create.
func Open(path string, opts *Options) (*Engine, error) {
	if opts == nil {
		opts = &Options{}
	}
	db, err := storage.Open(path, &storage.Options{CachePages: opts.CachePages, CacheShards: opts.CacheShards})
	if err != nil {
		return nil, err
	}
	store, err := index.Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	format, err := store.CorpusFormat()
	if err != nil {
		db.Close()
		return nil, err
	}
	eng := &Engine{db: db, store: store, format: format}
	eng.initTelemetry(opts.Telemetry)
	eng.initPlanner(opts.Planner)
	if err := eng.initFrontDoor(opts.FrontDoor); err != nil {
		db.Close()
		return nil, err
	}
	if err := eng.loadSummary(); err != nil {
		db.Close()
		return nil, fmt.Errorf("trex: %s is not a TReX database: %w", path, err)
	}
	backend, err := store.ListBackend()
	if err != nil {
		db.Close()
		return nil, err
	}
	if backend == index.ListBackendSegment || opts.SegmentLists {
		if err := eng.enableSegments(segmentDir(path)); err != nil {
			db.Close()
			return nil, err
		}
	}
	if ds, err := corpus.OpenDocStore(db); err == nil {
		eng.docs = ds
	}
	if err := eng.startConfiguredAutopilot(opts); err != nil {
		db.Close()
		return nil, err
	}
	return eng, nil
}

// Close stops the autopilot (if running), waits for in-flight queries
// and shadow runs, then flushes and closes the underlying database.
func (e *Engine) Close() error {
	e.StopAutopilot()
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	e.beginWrite()
	defer e.endWrite()
	err := e.db.Close()
	if serr := e.store.CloseSegments(); err == nil {
		err = serr
	}
	return err
}

// Summary exposes the collection's structural summary.
func (e *Engine) Summary() *summary.Summary { return e.sum }

// Format reports which document universe the collection lives in.
func (e *Engine) Format() corpus.Format { return e.format }

// Store exposes the underlying index tables (read-mostly use).
func (e *Engine) Store() *index.Store { return e.store }

// DB exposes the storage database (for stats and disk accounting).
func (e *Engine) DB() *storage.DB { return e.db }

// Backup writes a consistent copy of the whole database (all tables, the
// summary, any materialized lists) to a new file at path; the copy opens
// directly with trex.Open. Safe to run concurrently with queries; it
// excludes maintenance operations (AddDocuments, Materialize,
// SelfManage, autopilot runs) for its duration.
//
// Only the pager database is copied: the segment (when the engine runs
// with Options.SegmentLists) is a derived replica of the trees, and
// opening the copy rebuilds it — the persisted backend marker triggers
// the rebuild, and the list epoch makes any stale segment directory
// detectable.
func (e *Engine) Backup(path string) error {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	return e.db.BackupToFile(path)
}

// Document returns the raw bytes of a stored document; only available
// when the engine was built with StoreDocuments.
func (e *Engine) Document(id int) ([]byte, error) {
	e.beginRead()
	defer e.endRead()
	return e.document(id)
}

func (e *Engine) document(id int) ([]byte, error) {
	if e.docs == nil {
		return nil, fmt.Errorf("trex: documents were not stored (Options.StoreDocuments)")
	}
	return e.docs.Get(id)
}

// summaryChunkSize keeps each chunk under the storage value limit.
const summaryChunkSize = 3000

func (e *Engine) saveSummary() error {
	data, err := e.sum.MarshalBinary()
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		lo := i * summaryChunkSize
		if lo >= len(data) && i > 0 {
			break
		}
		hi := lo + summaryChunkSize
		if hi > len(data) {
			hi = len(data)
		}
		key := fmt.Sprintf("%s%08d", metaSummaryPrefix, i)
		if err := e.store.Meta.Put([]byte(key), data[lo:hi]); err != nil {
			return err
		}
		if hi == len(data) {
			break
		}
	}
	return nil
}

func (e *Engine) loadSummary() error {
	cur := e.store.Meta.Cursor()
	prefix := []byte(metaSummaryPrefix)
	var data []byte
	ok, err := cur.SeekPrefix(prefix)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no stored summary")
	}
	for ; ok; ok, err = cur.NextPrefix(prefix) {
		data = append(data, cur.Value()...)
	}
	if err != nil {
		return err
	}
	e.sum = &summary.Summary{}
	return e.sum.UnmarshalBinary(data)
}
