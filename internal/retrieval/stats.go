package retrieval

import (
	"time"

	"trex/internal/index"
	"trex/internal/storage"
)

// Scored is one ranked answer.
type Scored struct {
	Elem  index.Element
	Score float64
}

// ElementTF is one ERA result row: an element and its term-frequency
// vector, aligned with the term list the algorithm was called with.
type ElementTF struct {
	Elem index.Element
	TF   []int
}

// Stats describes where a retrieval run spent its effort. Counters are a
// machine-independent cost model; durations come from the wall clock.
type Stats struct {
	// Elapsed is the total run time.
	Elapsed time.Duration
	// HeapTime is the portion of Elapsed spent managing the top-k heap.
	// The paper's ITA ("TA with ideal heap management") is Elapsed minus
	// HeapTime; ITATime reports it directly.
	HeapTime time.Duration
	// SortedAccesses counts RPL entries read under sorted access,
	// including entries skipped because their sid is outside the query.
	SortedAccesses int
	// SkippedBySID counts sorted accesses discarded by the sid filter.
	SkippedBySID int
	// RandomAccesses counts per-(element, term) random probes.
	RandomAccesses int
	// PositionsScanned counts posting-list positions consumed (ERA).
	PositionsScanned int64
	// ElementsScanned counts extent elements visited (ERA).
	ElementsScanned int64
	// HeapOps counts pushes and evictions on the top-k heap.
	HeapOps int
	// ListReads[i] is the number of entries read from term i's list.
	ListReads []int
	// ListTotals[i] is the total number of entries in term i's list
	// segment for the query's sids (when known; 0 otherwise).
	ListTotals []int
	// Answers is the number of result elements produced before top-k
	// truncation.
	Answers int
	// CursorSteps counts storage rows fetched by the RPL/ERPL list
	// iterators: a fraction of ListReads, the cursor-step saving the
	// block encoding buys.
	CursorSteps int
	// BlockSkips counts entries Merge consumed through the bulk drain
	// fast path — entries that never paid a per-entry frontier scan.
	BlockSkips int
	// PageReads is the number of storage pages the run touched — cache
	// hits plus backend fetches (delta of db.Stats() around it). Counting
	// logical touches keeps the number a machine-independent cost model:
	// it does not collapse to zero when the working set is cached.
	// BytesRead is the physical backend traffic in bytes (misses only)
	// plus the key/value bytes served from the mmap'd segment (when the
	// engine runs with the segment list backend), so a fully cached
	// pager run legitimately reports BytesRead == 0 with a large
	// PageReads while a segment run reports exactly the mapped bytes its
	// cursors covered.
	PageReads uint64
	BytesRead uint64
	// SegmentRows counts rows served from segment cursors during the
	// run (0 on the pager backend).
	SegmentRows uint64
	// IOExact reports whether PageReads/BytesRead can be attributed to
	// this run alone. captureIO clears it when the measurement window saw
	// writer traffic (a maintenance flush mid-query dirties the shared
	// counters); the engine additionally clears it when another query's
	// window overlapped. When false the counts are still safe totals —
	// they just cover more than one operation.
	IOExact bool
	// ThresholdStop reports that TA terminated via its threshold test
	// (top-k worst score above the aggregate frontier bound) rather than
	// by exhausting the lists.
	ThresholdStop bool
	// Approximate reports that the run stopped early because its
	// context deadline expired: the results are the best-effort state at
	// the stop point (everything scored so far — ranked when k > 0), not
	// the rank-safe top k. Merge's are the answers of the sids it swept.
	// Cancellation never sets this — a canceled run returns an error, not
	// a partial answer.
	Approximate bool
}

// captureIO fills the I/O counters from the delta of the store's
// combined stats since `before` (snapshotted when the run started). The
// counters are engine-global, so concurrent operations bleed into each
// other's deltas; IOExact records whether the window was provably free
// of writer traffic — pager writes or a segment generation swap, either
// of which dirties the shared counters mid-window. (Reader overlap is
// invisible at this level — the engine's telemetry guard detects it and
// ANDs into IOExact.) For the single-query measurement paths that feed
// Explain, the bench suite and the cost tables the delta is exact.
func (s *Stats) captureIO(st *index.Store, before index.IOStat) {
	d := st.IOStats().Sub(before)
	s.PageReads = d.Storage.CacheHits + d.Storage.CacheMisses
	s.BytesRead = d.Storage.PagesRead*storage.PageSize + d.SegmentBytes
	s.SegmentRows = d.SegmentRows
	s.IOExact = d.Storage.Puts == 0 && d.Storage.PagesWritten == 0 &&
		d.Storage.Flushes == 0 && d.SegmentSwaps == 0
}

// builtTotal sums the catalog's entry counts of term's lists of one kind
// over the query's sids — a ListTotals cell.
func builtTotal(st *index.Store, kind index.ListKind, term string, sids []uint32) (int, error) {
	total := 0
	for _, sid := range sids {
		c, _, err := st.BuiltSize(kind, term, sid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// ITATime returns the paper's "ideal heap" time: total time with heap
// management discounted.
func (s *Stats) ITATime() time.Duration {
	if s.HeapTime > s.Elapsed {
		return 0
	}
	return s.Elapsed - s.HeapTime
}

// CostProxy is a deterministic, machine-independent estimate of a run's
// work, used by the self-managing advisor so that index selection does not
// depend on wall-clock noise. Weights approximate relative operation
// costs: random accesses pay a seek, heap operations pay comparisons and
// cache misses, the final sort pays n log n.
//
// The random-access weight of 8 sorted reads is measured, not assumed: on
// the benchmark's paper_grid workload a one-shot index.TFInSpan costs 11
// to 17 RPL reads (index.tf_in_span_ns 840-1,070 over index.rpl_next_ns
// 63-79, two seeds), and TA's per-term SpanProbe, which reuses its cursor
// and key, about two thirds of that. Before posting fragments carried
// checkpoints the ratio was near 60.
//
// The element-advance weight of 2 position reads is measured the same way:
// index.element_next_ns over index.posting_next_ns on paper_grid is 32 over
// 13.5 (two seeds), about 2.4, now that an advance is a forward seek inside
// the leaf the iterator's cursor holds. While every advance was a
// root-to-leaf descent with a fresh key the ratio was 238-249 over 13.6-17.5,
// about 17, and the weight understated ERA's element visits sevenfold.
//
// An ERPL read counts as one read like an RPL read, and that is measured
// too: index.erpl_next_ns on paper_grid is about 30 beside index.rpl_next_ns
// 69, since the ERPL iterator decodes each block into the buffer it owns and
// walks blocks without merging them (47-62 while every block was a fresh
// slice and every entry re-checked a lookahead row).
// ERA's and Merge's ranking is priced as n log n below, a sort of every
// answer that no longer runs: at k > 0 they select the k best in about n
// comparisons and sort only those, and at k <= 0 they do not rank at all
// (the engine's combine does). The term stays because the advisor's plans
// and the planner's online calibration were fitted with it, and Merge
// reads every list to the end either way.
func (s *Stats) CostProxy() float64 {
	reads := float64(s.PositionsScanned)
	var listReads int
	for _, r := range s.ListReads {
		listReads += r
	}
	if s.PositionsScanned == 0 {
		reads = float64(listReads)
	}
	if float64(s.SortedAccesses) > reads {
		reads = float64(s.SortedAccesses)
	}
	cost := reads + 2*float64(s.ElementsScanned) + 8*float64(s.RandomAccesses) + 2*float64(s.HeapOps)
	if s.HeapOps == 0 && s.Answers > 1 {
		// The sort of the full answer set Merge/ERA once ended with.
		n := float64(s.Answers)
		logN := 1.0
		for v := n; v > 1; v /= 2 {
			logN++
		}
		cost += n * logN
	}
	return cost
}

// DepthFraction reports how much of the query's list volume was read under
// sorted access: 1.0 means the lists were read to the end — the regime the
// paper identifies as the reason Merge often beats TA.
func (s *Stats) DepthFraction() float64 {
	var reads, totals int
	for i := range s.ListReads {
		reads += s.ListReads[i]
		if i < len(s.ListTotals) {
			totals += s.ListTotals[i]
		}
	}
	if totals == 0 {
		return 0
	}
	return float64(reads) / float64(totals)
}
