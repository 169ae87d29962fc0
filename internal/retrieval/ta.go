package retrieval

import (
	"container/heap"
	"context"
	"time"

	"trex/internal/index"
	"trex/internal/score"
)

// TA evaluates a clause with the threshold algorithm over RPLs. It
// performs round-robin sorted accesses on each term's relevance posting
// list (skipping entries whose sid is not in the query's sid set), random
// accesses against the base tables to complete each newly seen element's
// score, and stops once the k-th best score reaches the threshold — the
// sum of the last scores seen in each list.
//
// The returned stats separate the time spent managing the top-k heap
// (Stats.HeapTime); the paper's ITA curve is Stats.ITATime().
func TA(st *index.Store, sids []uint32, terms []string, sc *score.Scorer, k int) ([]Scored, *Stats, error) {
	return TACtx(context.Background(), st, sids, terms, sc, k)
}

// TACtx is TA with a cancellation/deadline context, polled once per
// sorted-access round. On an expired deadline it stops at the round
// boundary and returns the current top-k heap with Stats.Approximate
// set; on cancellation it returns the context's error.
func TACtx(ctx context.Context, st *index.Store, sids []uint32, terms []string, sc *score.Scorer, k int) ([]Scored, *Stats, error) {
	start := time.Now()
	io := st.IOStats()
	stats := &Stats{ListReads: make([]int, len(terms)), ListTotals: make([]int, len(terms))}
	if k <= 0 {
		k = 1
	}
	n := len(terms)
	if n == 0 || len(sids) == 0 {
		stats.Elapsed = time.Since(start)
		return nil, stats, nil
	}
	sidSet := make(map[uint32]bool, len(sids))
	for _, s := range sids {
		sidSet[s] = true
	}
	for j, t := range terms {
		for _, s := range sids {
			c, _, err := st.BuiltSize(index.KindRPL, t, s)
			if err != nil {
				return nil, nil, err
			}
			stats.ListTotals[j] += c
		}
	}

	iters := make([]*index.RPLIterator, n)
	probes := make([]*index.SpanProbe, n) // random access, one per term for the whole query
	exhausted := make([]bool, n)
	for j, t := range terms {
		iters[j] = index.NewRPLIterator(st, t)
		probes[j] = index.NewSpanProbe(st, t)
	}
	// Pull each list's head so the first threshold check has data; heads
	// are buffered and replayed below.
	buffered := make([]*index.RPLEntry, n)
	for j := range iters {
		e, ok, err := nextInSIDSet(iters[j], sidSet, stats, j)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			exhausted[j] = true
			continue
		}
		buffered[j] = &e
	}

	topk := newTopKHeap(k)
	seen := make(map[uint64]bool)
	elemKey := func(e index.Element) uint64 { return uint64(e.Doc)<<32 | uint64(e.End) }
	contrib := make([]float64, n)

	processEntry := func(j int, e index.RPLEntry) error {
		elem := e.Element()
		key := elemKey(elem)
		if seen[key] {
			return nil
		}
		seen[key] = true
		// Sum contributions in term order (not arrival order) so scores
		// are bit-identical across methods and ties rank consistently.
		for jj, t := range terms {
			if jj == j {
				contrib[jj] = e.Score
				continue
			}
			tf, err := probes[jj].Count(elem)
			if err != nil {
				return err
			}
			stats.RandomAccesses++
			contrib[jj] = sc.Score(t, tf, int(e.Length))
		}
		var total float64
		for _, v := range contrib {
			total += v
		}
		// Only an offer that enters the heap is heap management; one the
		// k-th best already beats costs a comparison.
		if cand := (Scored{Elem: elem, Score: total}); topk.admits(cand) {
			hs := time.Now()
			topk.offer(cand)
			stats.HeapTime += time.Since(hs)
		}
		return nil
	}

	for j := range buffered {
		if buffered[j] != nil {
			if err := processEntry(j, *buffered[j]); err != nil {
				return nil, nil, err
			}
		}
	}

	for {
		if stop, err := pollBudget(ctx); err != nil {
			return nil, nil, err
		} else if stop {
			stats.Approximate = true
			break
		}
		allDone := true
		for j := range iters {
			if exhausted[j] {
				continue
			}
			allDone = false
			e, ok, err := nextInSIDSet(iters[j], sidSet, stats, j)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				exhausted[j] = true
				continue
			}
			if err := processEntry(j, e); err != nil {
				return nil, nil, err
			}
		}
		if allDone {
			break
		}
		// Stopping condition: the k-th best known score strictly exceeds
		// the threshold, so no unseen element can reach the top k. The
		// inequality must be strict: an unseen element can score exactly
		// the threshold and win the deterministic (doc, end) tie-break.
		//
		// Each list's bound is its next unreturned entry's score
		// (BlockMaxScore): emission is score-descending, so this bounds
		// everything still unread — block-encoded and v1 lists report the
		// identical value, and mid-block it is at least as tight as the
		// last value returned, so the threshold can only drop.
		var threshold float64
		for j := range iters {
			if exhausted[j] {
				continue
			}
			s, ok, err := iters[j].BlockMaxScore()
			if err != nil {
				return nil, nil, err
			}
			if ok {
				threshold += s
			}
		}
		if topk.full() && topk.worst() > threshold {
			stats.ThresholdStop = true
			break
		}
	}

	hs := time.Now()
	out := topk.sorted()
	stats.HeapTime += time.Since(hs)
	stats.HeapOps = topk.ops
	for j := range iters {
		stats.CursorSteps += iters[j].RowsRead
	}
	stats.Answers = len(out)
	stats.captureIO(st, io)
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}

// nextInSIDSet advances an RPL iterator to the next entry whose sid is in
// the query, counting skipped entries.
func nextInSIDSet(it *index.RPLIterator, sidSet map[uint32]bool, stats *Stats, j int) (index.RPLEntry, bool, error) {
	for {
		e, ok, err := it.Next()
		if err != nil || !ok {
			return index.RPLEntry{}, false, err
		}
		stats.SortedAccesses++
		stats.ListReads[j]++
		if sidSet[e.SID] {
			return e, true, nil
		}
		stats.SkippedBySID++
	}
}

// topKHeap is the min-heap of the k best elements seen so far. The paper's
// experiments show its management cost dominating TA on some queries; ops
// counts pushes and evictions so the cost model can expose that.
type topKHeap struct {
	k     int
	items scoredMinHeap
	ops   int
}

func newTopKHeap(k int) *topKHeap {
	return &topKHeap{k: k}
}

func (h *topKHeap) full() bool { return h.items.Len() >= h.k }

// worst returns the k-th best score (the heap minimum); call only when
// full() is true.
func (h *topKHeap) worst() float64 { return h.items[0].Score }

// admits reports whether offer would keep the candidate: the heap has
// room, or the candidate beats the current k-th best.
func (h *topKHeap) admits(s Scored) bool {
	return h.items.Len() < h.k || scoredLess(h.items[0], s)
}

// offer inserts the candidate, evicting the current minimum if the heap is
// full and the candidate beats it.
func (h *topKHeap) offer(s Scored) {
	if h.items.Len() < h.k {
		// heap.Push without boxing the candidate: Fix on the last slot
		// sifts it up exactly as Push would.
		h.items = append(h.items, s)
		heap.Fix(&h.items, len(h.items)-1)
		h.ops++
		return
	}
	if !h.admits(s) {
		return
	}
	h.items[0] = s
	heap.Fix(&h.items, 0)
	h.ops += 2 // one removal + one insertion, as the paper counts them
}

// sorted returns the heap contents best-first.
func (h *topKHeap) sorted() []Scored {
	out := make([]Scored, len(h.items))
	copy(out, h.items)
	SortScored(out)
	return out
}

// scoredLess orders candidates worst-first for the min-heap, with the
// same deterministic tie-break SortScored uses (later (doc,end) is worse).
func scoredLess(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return index.CompareDocEnd(a.Elem.Doc, a.Elem.End, b.Elem.Doc, b.Elem.End) > 0
}

type scoredMinHeap []Scored

func (h scoredMinHeap) Len() int           { return len(h) }
func (h scoredMinHeap) Less(i, j int) bool { return scoredLess(h[i], h[j]) }
func (h scoredMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scoredMinHeap) Push(x any)        { *h = append(*h, x.(Scored)) }
func (h *scoredMinHeap) Pop() any {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}
