package retrieval

import (
	"context"
	"time"

	"trex/internal/index"
)

// nraCand is one NRA candidate: an element with its [worst, best] score
// bounds, tracked via a bitmask of the lists it has been seen in. The
// per-term contributions are kept so the final score can be re-summed in
// canonical term order — bit-for-bit identical to what ERA/TA compute,
// which keeps tie-breaking consistent across methods.
type nraCand struct {
	elem   index.Element
	seen   uint64
	worst  float64
	scores []float64
}

// exactScore sums the contributions in term order.
func (c *nraCand) exactScore() float64 {
	var total float64
	for _, s := range c.scores {
		total += s
	}
	return total
}

// NRACtx evaluates a clause with a sorted-access-only threshold algorithm
// in the style the paper attributes to TopX: no random accesses —
// candidates carry [worst, best] score bounds that tighten as the
// score-ordered RPLs are consumed. This is the variant whose behavior the paper's TA curves
// show: with modest k it usually reads the lists to the end, because a
// candidate is only resolved once every list has either yielded it or
// been exhausted (a term a candidate contains must appear in that term's
// full RPL, so exhaustion proves absence).
//
// The returned ranking is exact and identical to TA/Merge/ERA. Queries
// are limited to 64 terms (far beyond NEXI practice).
//
// ctx is polled once per sorted-access round. On an expired deadline it
// ranks the candidates accumulated so far by their resolved
// contributions and returns them with Stats.Approximate set; on
// cancellation it returns the context's error.
func NRACtx(ctx context.Context, st *index.Store, sids []uint32, terms []string, k int) ([]Scored, *Stats, error) {
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
	if n > 64 {
		n = 64
		terms = terms[:64]
	}
	sidSet := NewSIDSet(sids)
	for j, t := range terms {
		var err error
		if stats.ListTotals[j], err = builtTotal(st, index.KindRPL, t, sids); err != nil {
			return nil, nil, err
		}
	}

	iters := make([]*index.RPLIterator, n)
	high := make([]float64, n)
	bounds := make([]float64, n)
	exhausted := make([]bool, n)
	for j, t := range terms {
		iters[j] = index.NewRPLIterator(st, t)
	}
	cands := make(map[uint64]*nraCand)
	var worstHeap []float64 // the stop test's scratch, reused across tests
	elemKey := func(e index.Element) uint64 { return uint64(e.Doc)<<32 | uint64(e.End) }

	absorb := func(j int, e index.RPLEntry) {
		high[j] = e.Score
		key := elemKey(e.Element())
		c, ok := cands[key]
		if !ok {
			c = &nraCand{elem: e.Element(), scores: make([]float64, n)}
			cands[key] = c
		}
		bit := uint64(1) << uint(j)
		if c.seen&bit == 0 {
			c.seen |= bit
			c.worst += e.Score
			c.scores[j] = e.Score
		}
	}
	for j := range iters {
		e, ok, err := nextInSIDSet(iters[j], sidSet, stats, j)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			exhausted[j] = true
			continue
		}
		absorb(j, e)
	}

	round := 0
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
				high[j] = 0
				continue
			}
			absorb(j, e)
		}
		if allDone {
			break
		}
		round++
		if round%8 != 0 {
			continue // amortize the stop test, as TopX batches it
		}
		// Tighten each list's bound to its next unreturned entry's score
		// (BlockMaxScore): at least as tight as the last value returned
		// (high), and independent of where blocks begin, so stop
		// decisions — and rankings — do not depend on the blocking.
		for j := range iters {
			bounds[j] = 0
			if exhausted[j] {
				continue
			}
			s, ok, err := iters[j].BlockMaxScore()
			if err != nil {
				return nil, nil, err
			}
			if ok {
				bounds[j] = s
			}
			if bounds[j] > high[j] {
				bounds[j] = high[j]
			}
		}
		hs := time.Now()
		var stop bool
		stop, worstHeap = nraStop(cands, bounds, exhausted, k, n, stats, worstHeap[:0])
		stats.HeapTime += time.Since(hs)
		if stop {
			stats.ThresholdStop = true
			break
		}
	}

	// Final ranking: on a clean stop every top-k candidate is resolved
	// (exact score); on exhaustion every candidate is exact. Scores are
	// re-summed in term order for cross-method determinism.
	out := make([]Scored, 0, len(cands))
	for _, c := range cands {
		out = append(out, Scored{Elem: c.elem, Score: c.exactScore()})
	}
	hs := time.Now()
	SortScored(out)
	stats.HeapTime += time.Since(hs)
	if len(out) > k {
		out = out[:k]
	}
	for j := range iters {
		stats.CursorSteps += iters[j].RowsRead
	}
	stats.Answers = len(out)
	stats.captureIO(st, io)
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}

// nraStop implements the sorted-only stopping test. Membership is fixed
// when the k-th best worst-score strictly exceeds both the threshold (an
// unseen element's best possible score) and every outside candidate's
// best-score. The result is additionally exact when each top-k candidate
// is resolved: every list has either yielded it or been exhausted.
//
// h is the caller's scratch for the bounded heap; it is handed back, grown,
// so one NRA run allocates it once.
func nraStop(cands map[uint64]*nraCand, high []float64, exhausted []bool, k, n int, stats *Stats, h []float64) (bool, []float64) {
	if len(cands) < k {
		return false, h
	}
	var threshold float64
	for j := range high {
		if !exhausted[j] {
			threshold += high[j]
		}
	}
	// k-th largest worst score via a bounded min-heap.
	for _, c := range cands {
		if len(h) < k {
			h = append(h, c.worst)
			heapUp(h, len(h)-1, floatLess)
		} else if c.worst > h[0] {
			h[0] = c.worst
			heapDown(h, 0, floatLess)
		}
		stats.HeapOps++
	}
	kth := h[0]
	if kth <= threshold {
		return false, h
	}
	for _, c := range cands {
		bestC := c.worst
		resolved := true
		for j := 0; j < n; j++ {
			if c.seen&(1<<uint(j)) == 0 && !exhausted[j] {
				bestC += high[j]
				resolved = false
			}
		}
		if c.worst >= kth {
			if !resolved {
				return false, h // a top-k candidate's score is still a bound
			}
			continue
		}
		if bestC >= kth {
			return false, h // an outside candidate could still climb in
		}
	}
	return true, h
}

func floatLess(a, b float64) bool { return a < b }
