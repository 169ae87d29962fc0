package retrieval

import (
	"context"
	"math"
	"time"

	"trex/internal/index"
)

// MergeCtx evaluates a clause with the Merge algorithm of Figure 3. Each
// term's ERPL segments for the query's sids are merged into one
// position-ordered stream (the two-step evaluation of Section 4); Merge
// then sweeps the streams in lockstep, summing the scores of every stream
// positioned on the same element, and ranks the accumulated result by
// score. Every answer is computed before any is dropped, which makes
// Merge's cost essentially independent of k — the behavior the paper's
// figures show — but only the k best are ever held (see ranking).
//
// When exactly one stream holds the minimal element, every entry it can
// produce below the other streams' heads is a single-term answer; those
// runs are pulled through TermERPL.DrainBelow in bulk — entries inside an
// already-decoded block cost neither a cursor step nor a per-entry
// frontier scan (Stats.BlockSkips counts them). List totals are not
// probed from the catalog up front: a Merge that finishes has read its
// lists to the end, so ListTotals is just ListReads — stats collection
// costs no seeks before retrieval starts. Only a run the deadline cut
// short looks the totals up.
//
// k <= 0 returns all answers. ctx is polled every few frontier steps. On
// an expired deadline it ranks whatever answers the sweep has
// accumulated and returns them with Stats.Approximate set; on
// cancellation it returns the context's error.
func MergeCtx(ctx context.Context, st *index.Store, sids []uint32, terms []string, k int) ([]Scored, *Stats, error) {
	start := time.Now()
	io := st.IOStats()
	stats := &Stats{ListReads: make([]int, len(terms)), ListTotals: make([]int, len(terms))}
	n := len(terms)
	if n == 0 || len(sids) == 0 {
		stats.Elapsed = time.Since(start)
		return nil, stats, nil
	}

	iters := make([]*index.TermERPL, n)
	for j, t := range terms {
		it, err := index.NewTermERPL(st, t, sids)
		if err != nil {
			return nil, nil, err
		}
		iters[j] = it
	}

	rank := ranking{k: k}
	var drainBuf []index.RPLEntry
	for step := 0; ; step++ {
		if step&mergePollMask == 0 {
			if stop, err := pollBudget(ctx); err != nil {
				return nil, nil, err
			} else if stop {
				stats.Approximate = true
				break
			}
		}
		// One scan of the frontier — the streams' heads, read in place —
		// finds m, the first stream on the minimal (doc, end); whether
		// another stream sits on the same element; and the bound, the
		// smallest head past the minimum, below which m's entries are all
		// single-term answers. A head that displaces the minimum leaves the
		// old minimum as the bound: it was below every other head seen.
		m, tied := -1, false
		var cur *index.RPLEntry
		boundDoc, boundEnd := uint32(math.MaxUint32), uint32(math.MaxUint32)
		for j := range iters {
			e := iters[j].Head()
			if e == nil {
				continue
			}
			c := -1
			if cur != nil {
				c = index.CompareDocEnd(e.Doc, e.End, cur.Doc, cur.End)
			}
			switch {
			case c < 0:
				if cur != nil {
					boundDoc, boundEnd = cur.Doc, cur.End
				}
				m, tied, cur = j, false, e
			case c == 0:
				tied = true
			case index.CompareDocEnd(e.Doc, e.End, boundDoc, boundEnd) < 0:
				boundDoc, boundEnd = e.Doc, e.End
			}
		}
		if cur == nil {
			break // all iterators at their end
		}
		// Consume the element from every stream on it. They all come at or
		// after m, and their scores add up in term order, as every method
		// sums them.
		elem := cur.Element()
		var total float64
		for j := m; j < n; j++ {
			e := iters[j].Head()
			if e == nil || index.CompareDocEnd(e.Doc, e.End, elem.Doc, elem.End) != 0 {
				continue
			}
			total += e.Score
			if err := iters[j].Advance(); err != nil {
				return nil, nil, err
			}
			stats.ListReads[j]++
			if !tied {
				break
			}
		}
		rank.add(Scored{Elem: elem, Score: total})
		if tied {
			continue
		}
		var err error
		if drainBuf, err = iters[m].DrainBelow(boundDoc, boundEnd, drainBuf[:0]); err != nil {
			return nil, nil, err
		}
		for _, e := range drainBuf {
			rank.add(Scored{Elem: e.Element(), Score: e.Score})
		}
		stats.ListReads[m] += len(drainBuf)
		stats.BlockSkips += len(drainBuf)
	}

	for j := range iters {
		// A finished Merge has read everything, so what was read is the
		// total (DepthFraction is 1). A truncated one reports the lists'
		// real sizes: the depth it reached is the point of the number.
		stats.ListTotals[j] = stats.ListReads[j]
		if stats.Approximate {
			var err error
			if stats.ListTotals[j], err = builtTotal(st, index.KindERPL, terms[j], sids); err != nil {
				return nil, nil, err
			}
		}
		stats.CursorSteps += iters[j].RowsRead()
	}
	stats.Answers = rank.n
	v := rank.sorted() // the paper uses QuickSort here, over every answer
	stats.captureIO(st, io)
	stats.Elapsed = time.Since(start)
	return v, stats, nil
}
