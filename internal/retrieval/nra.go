package retrieval

import (
	"context"
	"slices"
	"time"

	"trex/internal/index"
)

// nraCand is one NRA candidate: an element with its [worst, best] score
// bounds, tracked via a bitmask of the lists it has been seen in.
type nraCand struct {
	elem  index.Element
	seen  uint64
	worst float64
}

// nraCands holds a run's candidates in two slabs: cands in first-seen
// order, and scores, whose row i — scores[i*n:(i+1)*n] — keeps candidate
// i's per-term contributions so the final score can be re-summed in
// canonical term order, bit-for-bit identical to what ERA/TA compute,
// which keeps tie-breaking consistent across methods. at maps an
// element's packed (doc, end) to its slot. A candidate costs no
// allocation of its own: the slabs and the map grow by doubling.
type nraCands struct {
	n      int
	cands  []nraCand
	scores []float64
	at     map[uint64]int32
}

// absorb records that list j yielded e.
func (cs *nraCands) absorb(j int, e index.RPLEntry) {
	key := uint64(e.Doc)<<32 | uint64(e.End)
	i, ok := cs.at[key]
	if !ok {
		i = int32(len(cs.cands))
		cs.at[key] = i
		cs.cands = append(cs.cands, nraCand{elem: e.Element()})
		cs.scores = slices.Grow(cs.scores, cs.n)[:len(cs.scores)+cs.n]
		clear(cs.scores[len(cs.scores)-cs.n:])
	}
	c := &cs.cands[i]
	bit := uint64(1) << uint(j)
	if c.seen&bit == 0 {
		c.seen |= bit
		c.worst += e.Score
		cs.scores[int(i)*cs.n+j] = e.Score
	}
}

// exactScore sums candidate i's contributions in term order.
func (cs *nraCands) exactScore(i int) float64 {
	var total float64
	for _, s := range cs.scores[i*cs.n : (i+1)*cs.n] {
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
// are limited to 64 terms (far beyond NEXI practice). k <= 0 evaluates in
// full: NRA reads its lists to the end, skips the stop test, and returns
// every candidate, in no particular order.
//
// ctx is polled once per sorted-access round. On an expired deadline it
// scores the candidates accumulated so far by their resolved
// contributions and returns them (the best k, ranked, when k > 0) with
// Stats.Approximate set; on cancellation it returns the context's error.
func NRACtx(ctx context.Context, st *index.Store, sids []uint32, terms []string, k int) ([]Scored, *Stats, error) {
	start := time.Now()
	io := st.IOStats()
	stats := &Stats{ListReads: make([]int, len(terms)), ListTotals: make([]int, len(terms))}
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
	// A full evaluation reads every list to the end, so it meets at least
	// as many candidates as the longest list holds: the slabs and the map
	// start that large. A top-k run may stop early and grows them instead.
	var hint int
	if k <= 0 {
		hint = slices.Max(stats.ListTotals[:n])
	}
	cs := &nraCands{
		n:      n,
		cands:  make([]nraCand, 0, hint),
		scores: make([]float64, 0, hint*n),
		at:     make(map[uint64]int32, hint),
	}
	var worstHeap []float64 // the stop test's scratch, reused across tests
	absorb := func(j int, e index.RPLEntry) {
		high[j] = e.Score
		cs.absorb(j, e)
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
		if k <= 0 || round%8 != 0 {
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
		stop, worstHeap = nraStop(cs.cands, bounds, exhausted, k, n, stats, worstHeap[:0])
		stats.HeapTime += time.Since(hs)
		if stop {
			stats.ThresholdStop = true
			break
		}
	}

	// Final ranking: on a clean stop every top-k candidate is resolved
	// (exact score); on exhaustion every candidate is exact. Scores are
	// re-summed in term order for cross-method determinism.
	out := make([]Scored, len(cs.cands))
	for i := range cs.cands {
		out[i] = Scored{Elem: cs.cands[i].elem, Score: cs.exactScore(i)}
	}
	if k > 0 {
		hs := time.Now()
		SortScored(out)
		stats.HeapTime += time.Since(hs)
		if len(out) > k {
			out = out[:k]
		}
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
func nraStop(cands []nraCand, high []float64, exhausted []bool, k, n int, stats *Stats, h []float64) (bool, []float64) {
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
	for i := range cands {
		c := &cands[i]
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
	for i := range cands {
		c := &cands[i]
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
