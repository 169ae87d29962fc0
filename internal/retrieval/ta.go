package retrieval

import (
	"context"
	"time"

	"trex/internal/index"
	"trex/internal/score"
)

// TACtx evaluates a clause with the threshold algorithm over RPLs. It
// performs round-robin sorted accesses on each term's relevance posting
// list (skipping entries whose sid is not in the query's sid set), random
// accesses against the base tables to complete each newly seen element's
// score, and stops once the k-th best score reaches the threshold — the
// sum of the last scores seen in each list.
//
// The returned stats separate the time spent managing the top-k heap
// (Stats.HeapTime); the paper's ITA curve is Stats.ITATime().
//
// k <= 0 evaluates in full: TA reads its lists to the end and returns
// every answer, in no particular order; k > 0 returns the k best in
// SortScored order.
//
// ctx is polled once per sorted-access round. On an expired deadline it
// stops at the round boundary and returns the current top-k heap with
// Stats.Approximate set; on cancellation it returns the context's error.
func TACtx(ctx context.Context, st *index.Store, sids []uint32, terms []string, sc *score.Scorer, k int) ([]Scored, *Stats, error) {
	start := time.Now()
	io := st.IOStats()
	stats := &Stats{ListReads: make([]int, len(terms)), ListTotals: make([]int, len(terms))}
	n := len(terms)
	if n == 0 || len(sids) == 0 {
		stats.Elapsed = time.Since(start)
		return nil, stats, nil
	}
	sidSet := NewSIDSet(sids)
	for j, t := range terms {
		var err error
		if stats.ListTotals[j], err = builtTotal(st, index.KindRPL, t, sids); err != nil {
			return nil, nil, err
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
	// TA sees at least k elements before it can stop and rarely many times
	// that, and never more than its lists hold, which a full evaluation
	// reads; the set grows itself when a query reads deeper.
	var listTotal int
	for _, c := range stats.ListTotals {
		listTotal += c
	}
	hint := listTotal
	if k > 0 {
		hint = min(hint, 4*k)
	}
	seen := newElemSet(hint)
	contrib := make([]float64, n)

	processEntry := func(j int, e index.RPLEntry) error {
		elem := e.Element()
		if !seen.add(uint64(elem.Doc)<<32 | uint64(elem.End)) {
			return nil
		}
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
		// everything still unread — however the entries are blocked —
		// and mid-block it is at least as tight as the last value
		// returned, so the threshold can only drop.
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
func nextInSIDSet(it *index.RPLIterator, sidSet SIDSet, stats *Stats, j int) (index.RPLEntry, bool, error) {
	for {
		e, ok, err := it.Next()
		if err != nil || !ok {
			return index.RPLEntry{}, false, err
		}
		stats.SortedAccesses++
		stats.ListReads[j]++
		if sidSet.Has(e.SID) {
			return e, true, nil
		}
		stats.SkippedBySID++
	}
}

// topKHeap is the min-heap of the k best elements seen so far. The paper's
// experiments show its management cost dominating TA on some queries; ops
// counts pushes and evictions so the cost model can expose that. With
// k <= 0 it keeps every offer, unordered, and counts each as the push it
// would be in a heap no answer set fills.
type topKHeap struct {
	k     int
	items []Scored
	ops   int
}

func newTopKHeap(k int) *topKHeap {
	return &topKHeap{k: k}
}

func (h *topKHeap) full() bool { return h.k > 0 && len(h.items) >= h.k }

// worst returns the k-th best score (the heap minimum); call only when
// full() is true.
func (h *topKHeap) worst() float64 { return h.items[0].Score }

// admits reports whether offer would keep the candidate: the heap has
// room, or the candidate beats the current k-th best.
func (h *topKHeap) admits(s Scored) bool {
	return !h.full() || scoredLess(h.items[0], s)
}

// offer inserts the candidate, evicting the current minimum if the heap is
// full and the candidate beats it.
func (h *topKHeap) offer(s Scored) {
	if !h.full() {
		h.items = append(h.items, s)
		if h.k > 0 {
			heapUp(h.items, len(h.items)-1, scoredLess)
		}
		h.ops++
		return
	}
	if !h.admits(s) {
		return
	}
	h.items[0] = s
	heapDown(h.items, 0, scoredLess)
	h.ops += 2 // one removal + one insertion, as the paper counts them
}

// sorted returns the heap contents best-first, or as kept when k <= 0.
func (h *topKHeap) sorted() []Scored {
	if h.k <= 0 {
		return h.items
	}
	out := make([]Scored, len(h.items))
	copy(out, h.items)
	SortScored(out)
	return out
}

// scoredLess orders candidates worst-first for the min-heap: the reverse of
// SortScored's order, deterministic tie-break included (later (doc, end) is
// worse).
func scoredLess(a, b Scored) bool { return compareScored(a, b) > 0 }

// heapUp and heapDown keep a slice ordered as a binary min-heap under less
// — what container/heap's Push and Fix do, without its interface: no
// dispatch per comparison and no boxing of the pushed value. heapUp sifts
// h[i] toward the root after an append, heapDown sifts it toward the
// leaves after the root was replaced.
func heapUp[T any](h []T, i int, less func(a, b T) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func heapDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// elemSet is the set of (doc, end) element identities TA has already
// scored: insert-only, open-addressed with linear probing over a
// power-of-two table kept at most half full. A Go map spent more on
// hashing and bucket growth than TA spent on the sorted accesses
// themselves.
type elemSet struct {
	slots   []uint64 // 0 marks an empty slot; the zero key lives in hasZero
	n       int
	hasZero bool
}

// newElemSet sizes the table for hint keys without growing.
func newElemSet(hint int) *elemSet {
	size := 16
	for size < 2*hint {
		size *= 2
	}
	return &elemSet{slots: make([]uint64, size)}
}

// add inserts key and reports whether it was absent.
func (s *elemSet) add(key uint64) bool {
	if key == 0 {
		absent := !s.hasZero
		s.hasZero = true
		return absent
	}
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots = make([]uint64, 2*len(old))
		for _, k := range old {
			if k != 0 {
				s.slots[s.probe(k)] = k
			}
		}
	}
	i := s.probe(key)
	if s.slots[i] == key {
		return false
	}
	s.slots[i] = key
	s.n++
	return true
}

// probe returns the slot holding key, or the empty slot where it belongs.
func (s *elemSet) probe(key uint64) int {
	mask := len(s.slots) - 1
	// Fibonacci hashing: the high bits of the product mix doc and end.
	i := int((key*0x9E3779B97F4A7C15)>>32) & mask
	for s.slots[i] != 0 && s.slots[i] != key {
		i = (i + 1) & mask
	}
	return i
}
