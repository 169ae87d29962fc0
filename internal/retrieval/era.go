package retrieval

import (
	"context"
	"slices"
	"time"

	"trex/internal/index"
	"trex/internal/score"
)

// ERACtx is the exhaustive retrieval algorithm of Figure 2. Given the
// sids and terms of a translated clause, it returns every element that
// (1) is in the extent of one of the sids and (2) contains at least one
// of the terms, together with its term-frequency vector.
//
// It advances one iterator per term over the posting lists and one
// iterator per sid over the Elements table, accumulating an m x n counter
// matrix C where C[i][x] is the frequency of term x inside the current
// element of sid i.
//
// ctx is polled every few hundred positions of the sweep. On an expired
// deadline it flushes the open elements (so partially counted elements
// are still emitted with the frequencies seen so far) and returns with
// Stats.Approximate set; on cancellation it returns the context's error.
//
// Both inputs only move forward, so the sweep keeps two pieces of state
// between positions: the sids whose current element contains the last
// position (open), and the smallest position at which any sid's current
// element is entered or left (bound). A position below bound changes no
// sid's state and costs one increment per open element; only a position
// at or past it runs Figure 2's per-sid case analysis, which rebuilds
// both.
func ERACtx(ctx context.Context, st *index.Store, sids []uint32, terms []string) ([]ElementTF, *Stats, error) {
	start := time.Now()
	io := st.IOStats()
	stats := &Stats{ListReads: make([]int, len(terms))}
	m, n := len(sids), len(terms)
	var out []ElementTF
	if m == 0 || n == 0 {
		stats.Elapsed = time.Since(start)
		return out, stats, nil
	}

	elemIters := make([]*index.ElementIterator, m)
	cur := make([]index.Element, m)
	for i, sid := range sids {
		elemIters[i] = index.NewElementIterator(st, sid)
		e, err := elemIters[i].FirstElement()
		if err != nil {
			return nil, nil, err
		}
		cur[i] = e
		stats.ElementsScanned++
	}
	posIters := make([]*index.PostingIterator, n)
	pos := make([]index.Pos, n)
	for j, t := range terms {
		posIters[j] = index.NewPostingIterator(st, t)
		p, err := posIters[j].NextPosition()
		if err != nil {
			return nil, nil, err
		}
		pos[j] = p
		if !p.IsMax() {
			stats.PositionsScanned++
		}
	}

	// c is the m x n counter matrix, row i at c[i*n:(i+1)*n]. A row is
	// non-zero exactly when its sid has been open since its last flush,
	// which counted[i] records.
	c := make([]int, m*n)
	counted := make([]bool, m)
	open := make([]int, 0, m)
	var bound index.Pos // zero: the first position runs the case analysis
	// TF rows are carved out of slab allocations instead of one make per
	// emitted element: ERA emits one row per answer, and per-row slices
	// dominated its allocation profile on broad queries.
	const tfSlabRows = 256
	var tfSlab []int
	flush := func(i int) {
		if !counted[i] {
			return
		}
		counted[i] = false
		if len(tfSlab) < n {
			tfSlab = make([]int, n*tfSlabRows)
		}
		tf := tfSlab[:n:n]
		tfSlab = tfSlab[n:]
		row := c[i*n : (i+1)*n]
		copy(tf, row)
		out = append(out, ElementTF{Elem: cur[i], TF: tf})
		clear(row)
	}
	flushAll := func() {
		for i := 0; i < m; i++ {
			flush(i)
		}
	}

	for step := 0; ; step++ {
		if step%budgetPollInterval == 0 {
			if stop, err := pollBudget(ctx); err != nil {
				return nil, nil, err
			} else if stop {
				flushAll()
				stats.Approximate = true
				break
			}
		}
		// x: index of the minimal current position.
		x := 0
		for j := 1; j < n; j++ {
			if pos[j].Less(pos[x]) {
				x = j
			}
		}
		px := pos[x]
		if px.IsMax() {
			// All terms exhausted: flush every open element and stop.
			flushAll()
			break
		}
		if px.Less(bound) {
			for _, i := range open {
				c[i*n+x]++
			}
		} else {
			open = open[:0]
			bound = index.MaxPos
			for i := 0; i < m; i++ {
				e := cur[i]
				if e.IsDummy() {
					continue
				}
				// change is the next position at which sid i changes state:
				// one past its element's start, or its end once inside.
				change := index.Pos{Doc: e.Doc, Off: e.Start() + 1}
				if !px.Less(change) && !e.Contains(px) {
					// end(e_i) <= pos_x: the element is behind us. The paper
					// advances to the element with the lowest end position
					// greater than pos_x, which may already contain pos_x.
					flush(i)
					var err error
					if e, err = elemIters[i].NextElementAfter(px); err != nil {
						return nil, nil, err
					}
					cur[i] = e
					stats.ElementsScanned++
					if e.IsDummy() {
						continue
					}
					change = index.Pos{Doc: e.Doc, Off: e.Start() + 1}
				}
				if e.Contains(px) {
					change = e.EndPos()
					open = append(open, i)
					counted[i] = true
					c[i*n+x]++
				}
				if change.Less(bound) {
					bound = change
				}
			}
		}
		p, err := posIters[x].NextPosition()
		if err != nil {
			return nil, nil, err
		}
		pos[x] = p
		if !p.IsMax() {
			stats.PositionsScanned++
		}
		stats.ListReads[x]++
	}
	stats.Answers = len(out)
	stats.captureIO(st, io)
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}

// ExhaustiveTopKCtx evaluates a clause with ERACtx and ranks the results
// with the scorer, returning the top k in SortScored order (all results,
// unordered, when k <= 0). This is the baseline every query can fall back
// to: it needs no redundant indexes. An expired deadline yields the
// best-effort answers with Stats.Approximate set.
func ExhaustiveTopKCtx(ctx context.Context, st *index.Store, sids []uint32, terms []string, sc *score.Scorer, k int) ([]Scored, *Stats, error) {
	start := time.Now()
	rows, stats, err := ERACtx(ctx, st, sids, terms)
	if err != nil {
		return nil, nil, err
	}
	// Hoist the per-term scoring constants (IDF map lookup + log) out of
	// the per-row loop; TermScorer.Score is arithmetically identical to
	// sc.Score, so all strategies keep ranking elements the same way.
	ts := make([]score.TermScorer, len(terms))
	for j, t := range terms {
		ts[j] = sc.TermScorer(t)
	}
	scoreRow := func(r ElementTF) Scored {
		var total float64
		for j := range ts {
			if r.TF[j] != 0 {
				total += ts[j].Score(r.TF[j], int(r.Elem.Length))
			}
		}
		return Scored{Elem: r.Elem, Score: total}
	}
	keep := len(rows)
	if k > 0 && k < keep {
		keep = k
	}
	rank := ranking{k: k, items: make([]Scored, 0, keep)}
	for _, r := range rows {
		rank.add(scoreRow(r))
	}
	out := rank.sorted()
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}

// SortScored orders results by descending score, breaking ties by
// (doc, endpos) ascending so every strategy ranks identically.
func SortScored(s []Scored) {
	slices.SortFunc(s, compareScored)
}

// ranking collects a run's answers and hands back the k best in SortScored
// order — all of them, unordered, when k <= 0: the engine's combine ranks
// them, and ranking them here too was a second sort of every answer. With
// a positive k it never holds more than k: the first k are kept as they
// come and heapified once, worst at the root, and each later answer either
// loses to the root in one comparison or replaces it. That is n comparisons and a sort of k instead
// of a sort of n, and the same (score desc, doc, end) prefix. The heap's
// operations are not reported in Stats.HeapOps: CostProxy prices ERA's and
// Merge's ranking as a final sort of every answer, and the advisor's plans
// are functions of that number.
type ranking struct {
	k     int
	items []Scored
	n     int // answers added, Stats.Answers
}

func (r *ranking) add(s Scored) {
	r.n++
	switch {
	case r.k <= 0 || len(r.items) < r.k:
		r.items = append(r.items, s)
		if len(r.items) == r.k {
			for i := r.k/2 - 1; i >= 0; i-- {
				heapDown(r.items, i, scoredLess)
			}
		}
	case scoredLess(r.items[0], s):
		r.items[0] = s
		heapDown(r.items, 0, scoredLess)
	}
}

// sorted returns the kept answers, best-first when k > 0; the ranking is
// spent.
func (r *ranking) sorted() []Scored {
	if r.k > 0 {
		SortScored(r.items)
	}
	return r.items
}

// compareScored is SortScored's order: the better answer compares lower.
// (doc, end) identifies an element, so the order is total and an unstable
// sort is deterministic.
func compareScored(a, b Scored) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return index.CompareDocEnd(a.Elem.Doc, a.Elem.End, b.Elem.Doc, b.Elem.End)
}
