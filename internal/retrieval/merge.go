package retrieval

import (
	"context"
	"math"
	"time"

	"trex/internal/index"
)

// MergeCtx evaluates a clause with the Merge algorithm of Figure 3, one
// sid at a time. For each of the query's sids it sweeps the n terms'
// (term, sid) ERPL segments in lockstep, summing the scores of every
// segment positioned on the same element. The paper first merges each
// term's segments across the sids into one position-ordered list and
// sweeps those; an element belongs to exactly one sid, so the elements a
// sweep meets, and the term-order sums it computes for them, are the same
// sid by sid, without a cross-sid heap per term. One n-slot iterator array
// and its decode buffers serve every sid. Every answer is computed before
// any is dropped, which makes Merge's cost essentially independent of k —
// the behavior the paper's figures show — but only the k best are ever
// held (see ranking).
//
// When exactly one segment holds the minimal element, every entry it can
// produce below the other segments' heads is a single-term answer; those
// runs are pulled through ERPLIterator.DrainBelow in bulk — entries inside
// an already-decoded block cost neither a cursor step nor a per-entry
// frontier scan (Stats.BlockSkips counts them). List totals are not
// probed from the catalog up front: a Merge that finishes has read its
// lists to the end, so ListTotals is just ListReads — stats collection
// costs no seeks before retrieval starts. Only a run the deadline cut
// short looks the totals up.
//
// k <= 0 returns every answer, in no particular order; k > 0 returns the
// k best in SortScored order. ctx is polled every few frontier steps. On
// an expired deadline it returns the answers of the sids swept so far,
// and those of the sid the sweep was in, with Stats.Approximate set; on
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

	iters := make([]index.ERPLIterator, n)
	// heads[j] is segment j's next entry, valid while live[j].
	heads := make([]index.RPLEntry, n)
	live := make([]bool, n)
	next := func(j int) (err error) {
		heads[j], live[j], err = iters[j].Next()
		return err
	}
	rank := ranking{k: k}
	var drainBuf []index.RPLEntry
	step := 0
sweep:
	for _, sid := range sids {
		for j, t := range terms {
			iters[j].Reset(st, t, sid)
			if err := next(j); err != nil {
				return nil, nil, err
			}
		}
		for ; ; step++ {
			if step&mergePollMask == 0 {
				if stop, err := pollBudget(ctx); err != nil {
					return nil, nil, err
				} else if stop {
					stats.Approximate = true
					break sweep
				}
			}
			// One scan of the frontier finds m, the first segment on the
			// minimal (doc, end); whether another segment sits on the same
			// element; and the bound, the smallest head past the minimum,
			// below which m's entries are all single-term answers. A head
			// that displaces the minimum leaves the old minimum as the
			// bound: it was below every other head seen.
			m, tied := -1, false
			var cur *index.RPLEntry
			boundDoc, boundEnd := uint32(math.MaxUint32), uint32(math.MaxUint32)
			for j := range heads {
				if !live[j] {
					continue
				}
				e := &heads[j]
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
				// The sid's segments are all at their end. This counts
				// as a step, so a run of empty sids still polls.
				step++
				break
			}
			// Consume the element from every segment on it. They all come
			// at or after m, and their scores add up in term order, as
			// every method sums them.
			elem := cur.Element()
			var total float64
			for j := m; j < n; j++ {
				if !live[j] || index.CompareDocEnd(heads[j].Doc, heads[j].End, elem.Doc, elem.End) != 0 {
					continue
				}
				total += heads[j].Score
				stats.ListReads[j]++
				if !tied {
					break
				}
				if err := next(j); err != nil {
					return nil, nil, err
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
			if err := next(m); err != nil {
				return nil, nil, err
			}
		}
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
		stats.CursorSteps += iters[j].RowsRead
	}
	stats.Answers = rank.n
	// The paper ends with a QuickSort over every answer; only a k > 0
	// caller is owed an order, and then only over the k kept.
	v := rank.sorted()
	stats.captureIO(st, io)
	stats.Elapsed = time.Since(start)
	return v, stats, nil
}
